"""Each golden command's report content against its golden file.

A small run of envelope, smoothing, attractor, kdv-limit,
verify-identities and estimate-constants must reproduce its config hash,
verdict names and pass flags exactly, and every float of content.measured
and of each CSV's last row to GOLDEN_RTOL relative, or to the looser
tolerance KEY_TOLERANCES gives the key it sits under.  The files come from
tests/regenerate_golden.py; a change that moves a value on purpose
regenerates them and lists each moved key.
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

# (relative, absolute) tolerance of the floats under a key of content.measured
KEY_TOLERANCES = {
    # central differences over 2e-5 amplify the stencil states' roundoff
    "residuals": (0.02, 0.0),
    "halving_ratio": (0.02, 0.0),
    # a sum that cancels to roundoff (5.7e-17 at the golden run)
    "resonant_cancellation_residual": (0.0, 1e-13),
}


def assert_close(got, want, where, tol=(GOLDEN_RTOL, 0.0)):
    """Equal structure and non-float leaves; floats to tol = (relative,
    absolute), GOLDEN_RTOL relative unless a key on the way names another."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}", KEY_TOLERANCES.get(key, tol))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]", tol)
    elif isinstance(want, float):
        assert isinstance(got, float), where
        rtol, atol = tol
        assert abs(got - want) <= rtol * abs(want) + atol, f"{where}: {got!r} != {want!r}"
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


def test_regeneration_lists_each_moved_key():
    old = {"a": {"x": 1.0, "y": [1, 2]}, "b": "row", "gone": 3}
    new = {"a": {"x": 1.5, "y": [1, 4]}, "b": "row", "added": 4}
    assert list(regenerate_golden.moved(old, new)) == [
        ("a.x", 1.0, 1.5), ("a.y[1]", 2, 4), ("added", None, 4), ("gone", 3, None)]
