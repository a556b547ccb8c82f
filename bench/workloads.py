"""The three benchmark workloads, their seeded inputs and their correctness gate.

Each workload is a fixed list of experiment runs driven through the
package's public entry points (``fdkdv.cli.parse_and_dispatch`` or
``fdkdv.experiments.run_*`` plus the ``fdkdv.cli`` writers).  One *pass* runs
the list once, writes its artifacts, reads them back and checks them.  One
*operation* is one experiment run; it fails if any of its verdicts fails, if
it raises, if an artifact is missing or malformed, if a key measured
quantity drifts from the reference recorded at the seed commit, or if a
repeated pass in the same process gives a different result.

Why these workloads (see README.md for the measured shares):

* ``envelope`` -- ``fdkdv envelope --set T=10``: one IFRK4 trajectory at
  K=128, integrated twice (envelope + absorbing ball).  ``flow`` does ~90% of
  the work, one trajectory at a time, so ensemble batching has nothing to
  batch here and only trajectory reuse could help.
* ``attractor`` -- ``fdkdv attractor --set T=10 --set gamma=1.0 --set
  h=0.001``: four independent ETDRK4 members at K=64, ~99% in ``flow``.
  Batched stepping shows here.
* ``verify`` -- two normal-form residual runs at K=64, the constant
  estimates and the identity scans: ``normal_form`` and ``lattice`` do the
  work and ``flow`` almost none.  The bilinear form is used both as
  thousands of small-K calls at t=0 (the ladder search) and as a few K=64
  calls at t != 0 (the residual).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Benchmark seed n selects input case n mod N_CASES.  Every case has its
# reference quantities recorded from the seed commit in reference.json, so
# the regression gate is exact for any seed the benchmark is given.
N_CASES = 32

CSV_HEADER = "t,l2_norm,envelope,hs_gap_s0.5,hs_norm_s0.5"

# Residual study at K=64.  The IFRK4 stage quadrature is only accurate for
# |k^3 h| < 1, and 64^3 * 5e-6 = 1.31 puts the band edge past that at
# nf.dt=5e-6: there the halving ratio scattered (3.7 to 5.2 over the first six
# cases, one case outside the 3-5 window).  At nf.dt=2.5e-6, |k^3 h| <= 0.66
# and the ratios cluster at 3.9-4.1.  K=64 keeps a few K=64 calls of the
# bilinear form at t != 0 in the workload.
RESIDUAL_K = 64
RESIDUAL_TIME = 1e-3
RESIDUAL_DT = 2.5e-6

# Random trials per rung of the bilinear-constant ladder.  At the default 150,
# in 7 of the 32 cases a random trial beats the deterministic two-mode start
# and the greedy ascent from it takes 30-85% more ratio evaluations
# (5.3k -> 6.9k-9.9k), which made verify's wall time bimodal in the seed.  At
# 20 trials every case does the same 4,932 evaluations; the seed still draws
# the trials and the 2000 rho trials.
CONSTANTS_TRIALS = 20


def case_of(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed % N_CASES


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` distinct generator seeds for one workload, a pure function of
    (workload, seed mod N_CASES)."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    state = np.random.SeedSequence([tag, case_of(seed)]).generate_state(count + 4)
    out = []
    for x in state:
        x = int(x) % 1_000_000
        if x not in out:
            out.append(x)
    return out[:count]


@dataclass
class Operation:
    """One experiment run inside a pass: name, the report file it writes,
    and the CSV artifacts it must leave behind."""

    name: str
    report: str
    csvs: tuple[str, ...] = ()


@dataclass
class OpOutcome:
    name: str
    ok: bool
    problems: list[str]
    quantities: dict[str, float]
    checks: int
    checks_failed: int
    digest: str


class Workload:
    name = ""
    T = 10.0  # horizon of the CLI workloads' trajectories
    plots = True  # the CLI run writes plots.gp

    def __init__(self, seed: int):
        self.case = case_of(seed)

    def inputs(self) -> dict:
        raise NotImplementedError

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def execute(self, out: Path) -> dict[str, str]:
        """Run the experiment list into `out`; returns an error message per
        operation that did not complete."""
        raise NotImplementedError

    def _dispatch(self, command: str, out: Path) -> dict[str, str]:
        from fdkdv.cli import parse_and_dispatch

        code = parse_and_dispatch([command, "--out", str(out), "--quiet",
                                   *self.inputs()["argv"]])
        if code == 0:
            return {}
        return {op.name: f"fdkdv {command} exited {code}" for op in self.operations()}


class EnvelopeWorkload(Workload):
    name = "envelope"

    def __init__(self, seed):
        super().__init__(seed)
        (self.init_seed,) = derived_seeds(self.name, seed, 1)

    def inputs(self):
        return {"argv": ["--set", f"T={self.T}", "--seed", str(self.init_seed)]}

    def operations(self):
        return [
            Operation("energy_envelope", "report_energy_envelope.json", ("trajectory.csv",)),
            Operation("absorbing_ball", "report_absorbing_ball.json", ("absorbing.csv",)),
        ]

    def execute(self, out):
        return self._dispatch("envelope", out)


class AttractorWorkload(Workload):
    name = "attractor"

    def __init__(self, seed):
        super().__init__(seed)
        self.ensemble = derived_seeds(self.name, seed, 4)

    def inputs(self):
        seeds = "[" + ",".join(str(s) for s in self.ensemble) + "]"
        return {"argv": ["--set", f"T={self.T}", "--set", "gamma=1.0", "--set", "h=0.001",
                         "--set", f"ensemble.seeds={seeds}"]}

    def operations(self):
        csvs = tuple(f"attractor_seed{s}.csv" for s in self.ensemble)
        return [Operation("attractor_probe", "report_attractor_probe.json", csvs)]

    def execute(self, out):
        return self._dispatch("attractor", out)


class VerifyWorkload(Workload):
    name = "verify"
    plots = False

    def __init__(self, seed):
        super().__init__(seed)
        self.residual_seeds = derived_seeds(self.name, seed, 4)
        self.constants_seed = self.residual_seeds.pop()
        self.identity_seed = self.residual_seeds.pop()

    def configs(self):
        from fdkdv.experiments import RunConfig, default_residual_configs

        residual = [
            replace(cfg, grid_k=RESIDUAL_K, nf_time=RESIDUAL_TIME, nf_dt=RESIDUAL_DT,
                    init_seed=s)
            for cfg, s in zip(default_residual_configs()[0:2], self.residual_seeds)
        ]
        identity = RunConfig(identities_radius=300, init_seed=self.identity_seed)
        constants = RunConfig(s_values=(0.5,), constants_k=(8, 16, 32), rho_trials=2000,
                              constants_trials=CONSTANTS_TRIALS, init_seed=self.constants_seed)
        return [
            ("identity_checks", "run_identity_checks", identity),
            ("normal_form_residual_1", "run_normal_form_residual", residual[0]),
            ("normal_form_residual_2", "run_normal_form_residual", residual[1]),
            ("constant_estimates", "run_constant_estimates", constants),
        ]

    def inputs(self):
        keys = ("grid.k", "nf.time", "nf.dt", "init.seed", "identities.radius",
                "constants.k", "constants.trials", "rho.trials")
        return {label: {k: v for k, v in cfg.to_mapping().items() if k in keys}
                for label, _, cfg in self.configs()}

    def operations(self):
        return [Operation(label, f"report_{label}.json") for label, _, _ in self.configs()]

    def execute(self, out):
        # attribute lookups at call time, so a traced pass sees the wrappers
        from fdkdv import cli, experiments

        errors = {}
        for label, fn, cfg in self.configs():
            try:
                report = getattr(experiments, fn)(cfg)
            except Exception as exc:  # one failed experiment must not hide the others
                errors[label] = f"raised {type(exc).__name__}: {exc}"
                continue
            cli.write_report_json(report, out / f"report_{label}.json")
        return errors


WORKLOADS = {w.name: w for w in (EnvelopeWorkload, AttractorWorkload, VerifyWorkload)}


# --- reading back and checking -------------------------------------------------

def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


# Key measured quantities per operation, compared against reference.json:
# (key of content.measured, or "final" for the last row of each CSV, relative tolerance below,
#  relative tolerance above, absolute floor).  Roundoff-level changes from an
# FFT rewrite of B, of the cubic or of the stepper stay far inside these; a
# wrong coefficient or a changed scheme moves them by orders of magnitude
# more.  The bilinear constants are lower estimates of a supremum: a better
# maximizer may raise them, never lower them.
KEY_QUANTITIES = {
    "energy_envelope": [("max_envelope_violation", 1e-6, 1e-6, 1e-9),
                        ("final", 1e-6, 1e-6, 1e-12)],
    "absorbing_ball": [("measured_absorption_time", 0.0, 0.0, 1.5e-3),  # one step
                       ("final", 1e-6, 1e-6, 1e-12)],
    "attractor_probe": [("radius_spread", 1e-6, 1e-6, 0.0),
                        ("late_time_radii", 1e-6, 1e-6, 0.0),
                        ("final", 1e-6, 1e-6, 1e-12)],
    "normal_form_residual": [("residuals", 0.02, 0.02, 1e-12),
                             ("halving_ratio", 0.02, 0.02, 0.0)],
    "constant_estimates": [("bilinear_constants", 1e-3, 0.25, 0.0),
                           ("phase_lower_bound", 1e-9, 1e-9, 0.0),
                           ("multiplier_sups", 1e-9, 1e-9, 0.0),
                           ("cubic_bound_worst_ratio", 1e-9, 1e-9, 0.0)],
    "identity_checks": [("quartic_triples_checked", 0.0, 0.0, 0.0),
                        ("cubic_pairs_checked", 0.0, 0.0, 0.0),
                        ("resonant_cancellation_residual", 0.0, 0.0, 1e-13)],
}


def _op_kind(name: str) -> str:
    return "normal_form_residual" if name.startswith("normal_form_residual") else name


def key_quantities(op: Operation, content: dict) -> dict[str, float]:
    flat: dict[str, float] = {}
    _flatten(op.name, content.get("measured", {}), flat)
    keys = [q[0] for q in KEY_QUANTITIES[_op_kind(op.name)]]
    return {k: v for k, v in flat.items()
            if any(k == f"{op.name}.{q}" or k.startswith(f"{op.name}.{q}.")
                   or k.startswith(f"{op.name}.{q}[") for q in keys)}


def compare_to_reference(op: Operation, got: dict[str, float],
                         ref: dict[str, float]) -> list[str]:
    problems = []
    specs = KEY_QUANTITIES[_op_kind(op.name)]
    expected_keys = set(ref)
    if set(got) != expected_keys:
        missing = sorted(expected_keys - set(got))
        extra = sorted(set(got) - expected_keys)
        problems.append(f"quantity keys differ: missing {missing} extra {extra}")
    for key in sorted(expected_keys & set(got)):
        spec = next(s for s in specs if key[len(op.name) + 1:].startswith(s[0]))
        _, lo, hi, floor = spec
        r, g = ref[key], got[key]
        if not math.isfinite(g):
            problems.append(f"{key} = {g!r} is not finite")
            continue
        if not (r - lo * abs(r) - floor <= g <= r + hi * abs(r) + floor):
            problems.append(f"{key} = {g!r} drifted from reference {r!r}")
    return problems


def _check_csv(path: Path, T: float, final: dict, prefix: str) -> list[str]:
    """Pinned header, rows from t=0 to t=T; the last row's values go into
    `final` as key quantities."""
    if not path.exists():
        return [f"missing artifact {path.name}"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path.name}: header {lines[:1]!r} != {CSV_HEADER!r}"]
    if len(lines) < 3:
        return [f"{path.name}: only {len(lines) - 1} data rows"]
    columns = CSV_HEADER.split(",")
    first, last = lines[1].split(","), lines[-1].split(",")
    if len(first) != len(columns) or len(last) != len(columns):
        return [f"{path.name}: rows do not have {len(columns)} columns"]
    if float(first[0]) != 0.0 or abs(float(last[0]) - T) > 1e-9:
        return [f"{path.name}: rows span t={first[0]}..{last[0]}, expected 0..{T}"]
    for col, val in zip(columns[1:], last[1:]):
        final[f"{prefix}.final.{path.name}.{col}"] = float(val)
    return []


def check_pass(workload: Workload, out: Path, errors: dict[str, str],
               reference: dict | None) -> list[OpOutcome]:
    """Read back every artifact of one pass and judge each operation."""
    outcomes = []
    for op in workload.operations():
        problems = [errors[op.name]] if op.name in errors else []
        path = out / op.report
        content, checks, failed = {}, 0, 0
        if not path.exists():
            problems.append(f"missing artifact {op.report}")
        else:
            content = json.loads(path.read_text())["content"]
            verdicts = content.get("verdicts", [])
            checks = len(verdicts)
            failed_names = [v["name"] for v in verdicts if not v["passed"]]
            failed = len(failed_names)
            if not verdicts:
                problems.append("report has no verdicts")
            if failed_names:
                problems.append(f"failed verdicts {failed_names}")
        # the deterministic part of every artifact, for the repeat-pass check
        digest = hashlib.sha256(json.dumps(content, sort_keys=True).encode())
        got = key_quantities(op, content) if content else {}
        for csv in op.csvs:
            problems += _check_csv(out / csv, workload.T, got, op.name)
            if (out / csv).exists():
                digest.update((out / csv).read_bytes())
        if workload.plots and not (out / "plots.gp").exists():
            problems.append("missing artifact plots.gp")
        if reference is not None and content:
            ref = reference.get(op.name)
            if ref is None:
                problems.append("no reference recorded for this operation")
            else:
                problems += compare_to_reference(op, got, ref)
        outcomes.append(OpOutcome(op.name, not problems, problems, got, checks, failed,
                                  digest.hexdigest()))
    return outcomes
