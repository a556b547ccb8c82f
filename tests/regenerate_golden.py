"""Golden content of the four trajectory commands, for tests/test_golden.py.

Each entry of INVOCATIONS is one small CLI run (K <= 32, T <= 2).  Its
golden file, tests/data/golden/<name>.json, holds the argv and what the
run must reproduce: per report, the config hash, the verdict names and
pass flags, and content.measured; per CSV, its header and last row.

Regenerate every file (after a change that moves a value on purpose) with

    PYTHONPATH=src python tests/regenerate_golden.py
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


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in INVOCATIONS.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(snapshot(argv), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
