"""fdkdv benchmark: run one workload for a fixed time and print its figures.

    python3 bench/run.py --workload envelope --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh single-threaded worker processes, one at a time: one
that runs passes of the workload until ``--seconds`` is used up, and before
and after it a few that only set up (imports and inputs from the seed, timed
as ``setup_s``).  With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics.  Each pass is checked (see workloads.py); any failed
operation makes ``correct`` false and is named on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("envelope", "attractor", "verify")
# Set-up-only processes per run, half before the measuring worker and half
# after it, so that the median spans the run rather than one moment of it.
SETUP_PROBES = 12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Keep every run under the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = {"calls": "count", "steps": "count", "rows": "count", "bytes": "bytes",
               "checks": "count", "checks_failed": "count", "quartic_triples": "count",
               "ratio_evals": "count", "step_us": "us", "coverage": "ratio"}


def machine_block(env: dict) -> dict:
    """The host as far as it can be read without privileges."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "child_env": {k: env[k] for k in THREAD_VARS},
    }


def child_env(root: Path, out: Path) -> dict:
    """Environment of the worker processes: one thread, the checkout's
    package, and every file they write inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_VARS})
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(root / ".bench_build" / "pycache"),
        "FDKDV_OUT_ROOT": str(out / "runs"),
    })
    return env


def spawn_worker(args: list[str], env: dict, result: Path, timeout: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(spawned), "--result", str(result)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(result.read_text())


def _layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in (0, 60]")

    t_start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    reference = HERE / "reference.json"
    if not (src / "fdkdv" / "__init__.py").is_file():
        print(f"bench: no package source at {src}/fdkdv; run from a checkout root",
              file=sys.stderr)
        return 2
    if not reference.is_file():
        print(f"bench: missing {reference}", file=sys.stderr)
        return 2

    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = child_env(root, out)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference", str(reference)]

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    def probe_setup(i: int) -> float:
        return spawn_worker([*common, "--setup-only", "--out", str(out)], env,
                            out / f"setup{i}.json", timeout=min(60.0, left()))["setup_s"]

    half = SETUP_PROBES // 2
    try:
        setups = [probe_setup(i) for i in range(half)]
        res = spawn_worker([*common, "--seconds", repr(args.seconds), "--trace", str(args.trace),
                            "--out", str(out / "passes")],
                           env, out / "result.json", timeout=left() - 10.0)
        setups += [probe_setup(i) for i in range(half, SETUP_PROBES)]
        if min(setups) <= 0:
            raise RuntimeError("non-positive set-up time")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    spans = out / "passes" / "spans.json"
    if spans.exists():
        spans.replace(root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
    shutil.rmtree(out)

    if Path(res["fdkdv_src"]) != src.resolve():
        print(f"bench: imported fdkdv from {res['fdkdv_src']}, not {src}", file=sys.stderr)
        return 1

    ops = [op for pas in res["passes"] for op in pas["ops"]]
    attempted = len(ops)
    failures = [f"pass {i} {op['name']}: {problem}"
                for i, pas in enumerate(res["passes"]) for op in pas["ops"]
                for problem in op["problems"]]
    failed = sum(1 for op in ops if not op["ok"])

    plain = [pas["wall_s"] for pas in res["passes"] if not pas["traced"]]
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median([*setups, res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced = [pas for pas in res["passes"] if pas["traced"]]
        names = traced[0]["layers"].keys()
        metrics = {n: {"value": statistics.median(pas["layers"][n] for pas in traced),
                       "unit": _layer_unit(n)} for n in names}
        overhead = statistics.median(pas["wall_s"] for pas in traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "case": res["case"],
        "inputs": res["inputs"],
        "machine": machine_block(env),
        "pass_wall_s": [[round(pas["wall_s"], 4), pas["traced"]] for pas in res["passes"]],
        "setup_probes_s": [round(s, 4) for s in [*setups, res["setup_s"]]],
        "failures": failures,
    }
    print("bench detail: " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
