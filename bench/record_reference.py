"""Record the reference quantities of every input case into reference.json.

    python3 bench/record_reference.py

Run it from the root of a checkout, at the commit whose results are the
reference.  It runs one pass of every workload for each of the
``workloads.N_CASES`` input cases, without a reference to compare against,
and stores the key measured quantities of every operation.  Cases whose
operations fail their own verdicts are listed in the output file and on
stderr; they are never dropped.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# Worker processes at a time; each is single-threaded.
JOBS = 2


def _one(root: Path, workload: str, case: int) -> tuple[int, str, dict]:
    out = root / ".bench_out" / f"record-{workload}-{case}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # without --seconds the worker runs exactly one untraced pass
    res = run.spawn_worker(
        ["--workload", workload, "--seed", str(case), "--out", str(out / "passes")],
        run.child_env(root, out), out / "result.json", timeout=600)
    shutil.rmtree(out)
    return case, workload, res


def main() -> int:
    root = Path.cwd()
    jobs = [(w, c) for c in range(workloads.N_CASES) for w in sorted(workloads.WORKLOADS)]
    cases: dict = {str(c): {} for c in range(workloads.N_CASES)}
    failing = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(_one, root, w, c) for w, c in jobs]
        for fut in futures:
            case, workload, res = fut.result()
            cases[str(case)][workload] = res["quantities"]
            for op in res["passes"][0]["ops"]:
                if not op["ok"]:
                    failing.append({"case": case, "workload": workload,
                                    "operation": op["name"], "problems": op["problems"]})
                    print(f"case {case} {workload} {op['name']}: {op['problems']}",
                          file=sys.stderr)
    table = {
        "about": "key quantities per input case and operation, recorded with "
                 "bench/record_reference.py; tolerances are in workloads.KEY_QUANTITIES",
        "n_cases": workloads.N_CASES,
        "failing_at_recording": failing,
        "cases": cases,
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} runs, {len(failing)} failing operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
