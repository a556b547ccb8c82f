"""In-memory span recorder that wraps the package's layer functions from
outside, for the traced benchmark run.

The package modules import each other's functions by name, so a wrapper must
replace the name each caller looks up (``fdkdv.experiments.evolve``,
``fdkdv.lattice.normal_form_bilinear``, ``fdkdv.cli.smoothing_gap``, the
module globals ``normal_form_residual`` calls, ...).  Functions imported
inside a function body are looked up on their home module at call time, so
patching the home module covers them.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

# span name -> (home module, function name, other modules that import it by name)
SPANS = {
    "flow.evolve": ("flow", "evolve", ("experiments",)),
    "flow.step": ("flow", "step", ()),
    "spectral.sobolev_norm": (
        "spectral", "sobolev_norm", ("flow", "normal_form", "lattice", "experiments", "cli")),
    "spectral.random_rough_state": ("spectral", "random_rough_state", ("experiments",)),
    "normal_form.bilinear": ("normal_form", "normal_form_bilinear", ("lattice",)),
    "normal_form.nonresonant_cubic": ("normal_form", "nonresonant_cubic", ()),
    "normal_form.residual": ("normal_form", "normal_form_residual", ()),
    "normal_form.resonant_cancellation": ("normal_form", "resonant_cancellation_residual", ()),
    "normal_form.smoothing_gap": ("normal_form", "smoothing_gap", ("experiments", "cli")),
    "lattice.cubic_exhaustive": ("lattice", "verify_cubic_phase_exhaustive", ()),
    "lattice.quartic_exhaustive": ("lattice", "verify_quartic_phase_exhaustive", ()),
    "lattice.cubic_sampled": ("lattice", "verify_cubic_phase_sampled", ()),
    "lattice.quartic_sampled": ("lattice", "verify_quartic_phase_sampled", ()),
    "lattice.resonance_min": ("lattice", "resonance_factor_min_ratio", ()),
    "lattice.multiplier_sup": ("lattice", "smoothing_multiplier_sup", ()),
    "lattice.bilinear_ladder": ("lattice", "bilinear_constant_ladder", ()),
    "cli.csv": ("cli", "write_trajectory_csv", ()),
    "cli.json": ("cli", "write_report_json", ()),
}
for _fn in ("run_energy_envelope", "run_absorbing_ball", "run_attractor_probe"):
    SPANS[f"experiments.{_fn}"] = ("experiments", _fn, ("cli",))
for _fn in ("run_normal_form_residual", "run_identity_checks", "run_constant_estimates"):
    SPANS[f"experiments.{_fn}"] = ("experiments", _fn, ())

# Counted without a span: too fine-grained to time, and its children
# (bilinear form, norms) carry spans already.
COUNTERS = {"lattice.bilinear_ratio": ("lattice", "_bilinear_ratio")}

LAYERS = ("spectral", "flow", "normal_form", "lattice", "experiments", "cli")


class Tracer:
    """Records spans (name, start, end, parent index) and per-name counts.

    Install it with :meth:`installed`; the original functions are restored
    on exit, so untraced passes in the same process run the plain code.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.csv_rows = 0
        self.csv_bytes = 0
        self.flow_steps = 0
        self.quartic_triples = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {
            "flow.evolve": self._after_evolve,
            "flow.step": self._after_step,
            "cli.csv": self._after_csv,
            "lattice.quartic_exhaustive": self._after_quartic,
        }.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _after_evolve(self, args, kwargs, traj):
        self.flow_steps += len(traj.dense_times) - 1

    def _after_step(self, args, kwargs, result):
        self.flow_steps += 1

    def _after_csv(self, args, kwargs, result):
        traj, path = args[0], args[1]
        self.csv_rows += len(traj.times)
        self.csv_bytes += os.path.getsize(path)

    def _after_quartic(self, args, kwargs, checked):
        self.quartic_triples += int(checked)

    @contextmanager
    def installed(self):
        import importlib

        mods = {m: importlib.import_module(f"fdkdv.{m}") for m in LAYERS}
        saved = []
        try:
            for name, (home, attr, importers) in SPANS.items():
                original = getattr(mods[home], attr)
                wrapper = self._wrap(name, original)
                for m in (home, *importers):
                    saved.append((mods[m], attr, getattr(mods[m], attr)))
                    setattr(mods[m], attr, wrapper)
            for name, (home, attr) in COUNTERS.items():
                saved.append((mods[home], attr, getattr(mods[home], attr)))
                setattr(mods[home], attr, self._count(name, getattr(mods[home], attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # --- reduction --------------------------------------------------------

    def _children_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (outermost spans of that name only) and
        self time (span minus the spans directly inside it)."""
        child = self._children_time()
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["busy_s"] += t1 - t0
        return out

    def root_time(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def layer_metrics(self, wall_s: float, checks: int, checks_failed: int) -> dict:
        tot = self.totals()

        def get(name, key):
            return tot.get(name, {}).get(key, 0.0)

        def busy(*names):
            return sum(get(n, "busy_s") for n in names)

        flow_busy = busy("flow.evolve", "flow.step")
        return {
            "flow.busy_s": flow_busy,
            "flow.steps": self.flow_steps,
            "flow.step_us": 1e6 * flow_busy / self.flow_steps if self.flow_steps else 0.0,
            "spectral.sobolev_norm.calls": get("spectral.sobolev_norm", "calls"),
            "spectral.sobolev_norm.busy_s": busy("spectral.sobolev_norm"),
            "spectral.random_rough_state.calls": get("spectral.random_rough_state", "calls"),
            "spectral.random_rough_state.busy_s": busy("spectral.random_rough_state"),
            "normal_form.bilinear.calls": get("normal_form.bilinear", "calls"),
            "normal_form.bilinear.busy_s": busy("normal_form.bilinear"),
            "normal_form.nonresonant_cubic.calls": get("normal_form.nonresonant_cubic", "calls"),
            "normal_form.nonresonant_cubic.busy_s": busy("normal_form.nonresonant_cubic"),
            "normal_form.residual.self_s": get("normal_form.residual", "self_s"),
            "normal_form.resonant_cancellation.busy_s": busy("normal_form.resonant_cancellation"),
            "normal_form.smoothing_gap.calls": get("normal_form.smoothing_gap", "calls"),
            "normal_form.smoothing_gap.busy_s": busy("normal_form.smoothing_gap"),
            "lattice.identity_scan.busy_s": busy(
                "lattice.cubic_exhaustive", "lattice.quartic_exhaustive",
                "lattice.cubic_sampled", "lattice.quartic_sampled"),
            "lattice.quartic_triples": self.quartic_triples,
            "lattice.multiplier_scan.busy_s": busy("lattice.resonance_min", "lattice.multiplier_sup"),
            "lattice.bilinear_ladder.self_s": get("lattice.bilinear_ladder", "self_s"),
            "lattice.bilinear_ladder.ratio_evals": self.counts.get("lattice.bilinear_ratio", 0),
            "experiments.self_s": sum(row["self_s"] for name, row in tot.items()
                                      if name.startswith("experiments.")),
            "experiments.checks": checks,
            "experiments.checks_failed": checks_failed,
            "cli.csv.busy_s": busy("cli.csv"),
            "cli.csv.rows": self.csv_rows,
            "cli.csv.bytes": self.csv_bytes,
            "cli.json.busy_s": busy("cli.json"),
            "trace.coverage": self.root_time() / wall_s,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
