"""One benchmark process: set up a workload from the seed, run passes of it
until the time is up, check every pass, and write the figures as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``; run it
directly only for debugging:

    PYTHONPATH=src python3 bench/worker.py --workload verify --seed 1 \\
        --seconds 10 --trace 0 --out .bench_out/dbg --result .bench_out/dbg.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

_T_IMPORT = time.monotonic()


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.monotonic() just before the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = args.spawned_at if args.spawned_at is not None else _T_IMPORT

    # --- set-up: imports and inputs from the seed ---------------------------
    import fdkdv
    import fdkdv.cli  # noqa: F401  (loads every layer module)

    import workloads
    from tracing import Tracer

    src = Path(fdkdv.__file__).resolve().parent.parent
    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = workload.inputs()
    reference = None
    if args.reference:
        table = json.loads(Path(args.reference).read_text())
        reference = table["cases"][str(workload.case)][workload.name]
    setup_s = time.monotonic() - start
    result = {"setup_s": setup_s, "fdkdv_src": str(src)}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    # --- timed passes -------------------------------------------------------
    out_root = Path(args.out)
    passes = []
    first_digests = None
    last_tracer = None
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        traced = args.trace == 1 and i % 2 == 1
        out = out_root / f"pass{i}"
        out.mkdir(parents=True)
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                errors = workload.execute(out)
                outcomes = workloads.check_pass(workload, out, errors, reference)
        else:
            errors = workload.execute(out)
            outcomes = workloads.check_pass(workload, out, errors, reference)
        wall = time.perf_counter() - t0
        shutil.rmtree(out)

        digests = [o.digest for o in outcomes]
        if first_digests is None:
            first_digests = digests
        for o, d in zip(outcomes, first_digests):
            if o.digest != d:
                o.ok = False
                o.problems.append("artifacts differ from the first pass of this process")
        record = {
            "traced": traced,
            "wall_s": wall,
            "ops": [{"name": o.name, "ok": o.ok, "problems": o.problems,
                     "checks": o.checks, "checks_failed": o.checks_failed}
                    for o in outcomes],
        }
        if i == 0:
            result["quantities"] = {o.name: o.quantities for o in outcomes}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(
                wall, sum(o.checks for o in outcomes),
                sum(o.checks_failed for o in outcomes))
            last_tracer = tracer
        passes.append(record)
        i += 1
        # start another pass only if a typical one still fits before the deadline
        # (so the default --seconds 0 runs exactly one untraced pass)
        if (time.monotonic() + statistics.median(p["wall_s"] for p in passes) > deadline
                and (args.trace == 0 or i >= 2)):
            break

    if last_tracer is not None:
        last_tracer.dump(out_root / "spans.json")
    result.update({
        "inputs": inputs,
        "case": workload.case,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    result["wall_s"] = statistics.median(plain)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
