"""Golden content of six small CLI runs, for tests/test_golden.py.

Each entry of INVOCATIONS is one small CLI run: the four trajectory
commands (K <= 32, T <= 2) and the two verification commands at a small
radius and K.  Its golden file, tests/data/golden/<name>.json, holds the
argv and what the run must reproduce: per report, the config hash, the
verdict names and pass flags, and content.measured; per CSV, its header
and last row.

Regenerate every file (after a change that moves a value on purpose) with

    PYTHONPATH=src python tests/regenerate_golden.py

which prints each moved key, old -> new, before it overwrites a file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

INVOCATIONS = {
    "envelope": ["envelope", "--set", "grid.k=32", "--set", "T=2", "--set", "gamma=2.0",
                 "--set", "sample.stride=100", "--set", "s.values=[0.5,2]"],
    "smoothing": ["smoothing", "--set", "ladder.k=[8,16,32]", "--set", "T=1",
                  "--set", "h=0.001", "--set", "sample.stride=50"],
    "attractor": ["attractor", "--set", "grid.k=32", "--set", "T=2", "--set", "gamma=5.0",
                  "--set", "h=0.001"],
    "kdv-limit": ["kdv-limit", "--set", "grid.k=32", "--set", "T=2",
                  "--set", "sample.stride=250", "--set", "s.values=[0.5,1]"],
    # the residual stencils' approach to nf.time - nf.dt ends in a shortened step
    "verify-identities": ["verify-identities", "--set", "identities.radius=20",
                          "--set", "identities.k=16", "--set", "nf.time=0.05"],
    "estimate-constants": ["estimate-constants", "--set", "constants.k=[8,16]",
                           "--set", "constants.trials=10", "--set", "rho.trials=200"],
}


def snapshot(argv) -> dict:
    """Run argv through the CLI into a fresh directory and return the pinned
    content of its reports and CSVs, keyed by file name."""
    from fdkdv.cli import parse_and_dispatch

    with tempfile.TemporaryDirectory() as tmp:
        code = parse_and_dispatch([*argv, "--out", tmp, "--quiet"])
        reports, csvs = {}, {}
        for path in sorted(Path(tmp).glob("report_*.json")):
            content = json.loads(path.read_text())["content"]
            reports[path.name] = {
                "config_hash": content["config_hash"],
                "verdicts": [[v["name"], v["passed"]] for v in content["verdicts"]],
                "measured": content["measured"],
            }
        for path in sorted(Path(tmp).glob("*.csv")):
            lines = path.read_text().splitlines()
            csvs[path.name] = {"header": lines[0], "last_row": lines[-1]}
    return {"argv": list(argv), "exit_code": code, "reports": reports, "csvs": csvs}


def moved(old, new, where=""):
    """(key, old value, new value) of every leaf in which two snapshots
    differ; a key only one of them has is None in the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{where}.{key}" if where else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{where}[{i}]")
    elif old != new:
        yield where, old, new


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in INVOCATIONS.items():
        path = GOLDEN_DIR / f"{name}.json"
        got = snapshot(argv)
        if path.exists():
            for key, old, new in moved(json.loads(path.read_text()), got):
                print(f"{name}: {key}: {old!r} -> {new!r}", file=sys.stderr)
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
