"""The traced benchmark run (bench/tracing.py) wraps package functions by
name from outside the package.  A renamed, removed or no longer imported
name would make it fail or silently stop timing a layer, so every name it
lists must exist on each module it patches."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_targets_exist(span):
    home, attr, importers = tracing.SPANS[span]
    for name in (home, *importers):
        module = importlib.import_module(f"fdkdv.{name}")
        assert callable(getattr(module, attr, None)), f"fdkdv.{name}.{attr} is missing"


@pytest.mark.parametrize("counter", sorted(tracing.COUNTERS))
def test_counter_targets_exist(counter):
    home, attr = tracing.COUNTERS[counter]
    module = importlib.import_module(f"fdkdv.{home}")
    assert callable(getattr(module, attr, None)), f"fdkdv.{home}.{attr} is missing"


def test_every_layer_is_importable():
    for layer in tracing.LAYERS:
        importlib.import_module(f"fdkdv.{layer}")


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_no_unlisted_module_binds_a_span_target(span):
    # a module-level import the tracer does not know of keeps the unwrapped
    # function, so calls through it would go untimed.  cli is left out: it
    # binds the verification experiments for its own subcommands, and the
    # benchmark calls those on fdkdv.experiments instead.
    home, attr, importers = tracing.SPANS[span]
    target = getattr(importlib.import_module(f"fdkdv.{home}"), attr)
    for name in set(tracing.LAYERS) - {"cli", home, *importers}:
        module = importlib.import_module(f"fdkdv.{name}")
        assert getattr(module, attr, None) is not target, f"fdkdv.{name} binds {attr}"
