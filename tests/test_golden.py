"""Each trajectory command's report content against its golden file.

A small run of envelope, smoothing, attractor and kdv-limit must reproduce
its config hash, verdict names and pass flags exactly, and every float of
content.measured and of each CSV's last row to GOLDEN_RTOL relative.  The
files come from tests/regenerate_golden.py; a change that moves a value
on purpose regenerates them and lists each moved key.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "regenerate_golden", Path(__file__).resolve().parent / "regenerate_golden.py")
regenerate_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate_golden)

GOLDEN_RTOL = 1e-10


def assert_close(got, want, where):
    """Equal structure and non-float leaves; floats to GOLDEN_RTOL relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= GOLDEN_RTOL * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(regenerate_golden.INVOCATIONS))
def test_command_matches_golden(name):
    golden = json.loads((regenerate_golden.GOLDEN_DIR / f"{name}.json").read_text())
    assert golden["argv"] == regenerate_golden.INVOCATIONS[name]
    got = regenerate_golden.snapshot(golden["argv"])
    assert got["exit_code"] == golden["exit_code"]
    assert got["reports"].keys() == golden["reports"].keys()
    for report, want in golden["reports"].items():
        have = got["reports"][report]
        assert have["config_hash"] == want["config_hash"], report
        assert have["verdicts"] == want["verdicts"], report
        assert_close(have["measured"], want["measured"], f"{report}: measured")
    assert got["csvs"].keys() == golden["csvs"].keys()
    for csv, want in golden["csvs"].items():
        have = got["csvs"][csv]
        assert have["header"] == want["header"], csv
        row = [float(x) for x in have["last_row"].split(",")]
        assert_close(row, [float(x) for x in want["last_row"].split(",")], f"{csv}: last row")
