"""Named, reproducible experiment procedures with pass/fail reports.

Each procedure consumes a RunConfig, runs the solver (or a lattice scan),
asserts the relevant claims at pinned tolerances, and returns a RunReport
whose numbers all trace back to trajectories produced in the same call.

Outcomes: a config value no run can use is a ConfigError from RunConfig
itself (runners raise one only for what depends on the experiment); a horizon
too short to measure is a report whose one verdict, horizon_sufficient,
fails, with the reason in measured["diagnostic"]; a solver breakdown raises
StepFailureError.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .flow import (
    SCHEMES,
    FlowParams,
    StepFailureError,
    TrajectoryRecord,
    default_step,
    energy_envelope,
    evolve,
    evolve_batch,
)
from .lattice import EPS_LIMIT, INT64_SAFE_RADIUS
from .normal_form import smoothing_gap
from .spectral import (
    CoefSeq,
    GridSpec,
    random_rough_state,
    rough_spectra,
    sobolev_norm,
    sobolev_norms,
)


class ConfigError(ValueError):
    """Malformed or unresolvable run configuration."""


ENVELOPE_TOL = 1e-6
CONSERVATION_TOL = 1e-8
LADDER_GAP_GROWTH = 1.05
LADDER_NORM_GROWTH = 1.3
ATTRACTOR_SPREAD = 1.10
RESTART_FRACTION = 0.5  # A4 restarts at the sample nearest T/2
ATTRACTOR_WINDOW = 0.25  # A9 judges the last quarter after settling
RESIDUAL_TOL = 1e-5
RESIDUAL_HALVING = (3.0, 5.0)  # "about 4x" when dt halves
IDENTITY_RESIDUAL_TOL = 1e-12
CONSTANT_GROWTH = 1.05


# The dotted config keys each experiment reads, its CSV writer's s.values and
# sample.stride included: a report records and hashes only these, and a CLI
# command accepts only its experiments' keys (pinned to a run's reads in tests).
_FORCING_KEYS = ("forcing.profile", "forcing.amplitude", "forcing.mode", "forcing.sigma",
                 "forcing.seed", "forcing.target_l2")
_INIT_KEYS = ("init.profile", "init.amplitude", "init.mode", "init.sigma", "init.seed",
              "init.target_l2")
_RUN_KEYS = ("gamma", *_FORCING_KEYS, "h", "scheme", "T", "s.values", "sample.stride")
CONFIG_KEYS = {
    "energy_envelope": ("grid.k", *_RUN_KEYS, *_INIT_KEYS),
    "absorbing_ball": ("grid.k", *_RUN_KEYS, *_INIT_KEYS),  # judges energy_envelope's run
    "kdv_limit": ("grid.k", *_RUN_KEYS, *_INIT_KEYS),
    "smoothing_ladder": ("ladder.k", *_RUN_KEYS, *_INIT_KEYS),
    "attractor_probe": ("grid.k", *_RUN_KEYS, "init.sigma", "ensemble.seeds"),
    "normal_form_residual": ("grid.k", "gamma", *_FORCING_KEYS, "scheme", *_INIT_KEYS,
                             "nf.time", "nf.dt"),
    "identity_checks": ("identities.radius", "identities.k", "init.seed"),
    "constant_estimates": ("s.values", "constants.k", "constants.trials", "constants.eps",
                           "rho.trials", "init.seed"),
}


def _key(name: str) -> str:
    """The dotted config key of a RunConfig field: grid_k -> grid.k."""
    return name.replace("_", ".", 1)


_TYPES = {"int": int, "float": (int, float), "str": str}


def _has_type(value, kind: str) -> bool:
    """Whether value fits the field annotation kind: int, float (an int is
    kept as given), str, or tuple[<one of those>, ...].  A bool is no
    number, though Python counts it an int."""
    if kind.startswith("tuple["):  # tuple[<item>, ...]
        return isinstance(value, tuple) and all(_has_type(x, kind[6:-6]) for x in value)
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Flat, hashable description of one experiment run.

    Field names map one-to-one onto the dotted keys of the JSON config format
    (grid.K <-> grid_k, forcing.profile <-> forcing_profile, ...).
    """

    grid_k: int = 128
    gamma: float = 1.0
    forcing_profile: str = "cosine"  # cosine | random | zero
    forcing_amplitude: float = 1.0
    forcing_mode: int = 1
    forcing_sigma: float = 3.0
    forcing_seed: int = 101
    forcing_target_l2: float = 1.0
    init_profile: str = "random"
    init_amplitude: float = 1.0
    init_mode: int = 1
    init_sigma: float = 2.5
    init_seed: int = 7
    init_target_l2: float = 1.0
    h: float = 0.0  # 0 -> min(1e-3, 0.5/K)
    scheme: str = "ifrk4"
    T: float = 20.0
    s_values: tuple[float, ...] = (0.5,)
    sample_stride: int = 20
    ladder_k: tuple[int, ...] = (64, 128, 256)
    nf_time: float = 0.5
    nf_dt: float = 2e-5
    ensemble_seeds: tuple[int, ...] = (11, 12, 13, 14)
    identities_radius: int = 1000
    identities_k: int = 64
    constants_trials: int = 150
    constants_k: tuple[int, ...] = (16, 32, 64)
    constants_eps: tuple[float, ...] = (0.005, 0.01)
    rho_trials: int = 10000

    def __post_init__(self):
        # every value is type-checked, then range-checked by the rows
        # (holds, key, requirement), so a bad one is a ConfigError naming
        # its key before anything runs
        for f in fields(self):
            if not _has_type(value := getattr(self, f.name), f.type):
                kind = f.type.replace("tuple", "list")
                raise ConfigError(f"{_key(f.name)} must have type {kind}, got {value!r}")
        profiles = ("cosine", "random", "zero")
        for holds, key, rule in (
            (self.grid_k >= 1, "grid.k", "be >= 1"),
            (self.gamma > 0 or (self.gamma == 0 and self.forcing_profile == "zero"), "gamma",
             "be positive, or 0 with forcing.profile = zero"),
            (self.h >= 0, "h", "be positive (0 picks the default step)"),
            (self.scheme in SCHEMES, "scheme", f"be one of {'|'.join(SCHEMES)}"),
            (self.T > 0, "T", "be positive"),
            (self.sample_stride >= 1, "sample.stride", "be >= 1"),
            (self.forcing_profile in profiles, "forcing.profile", "be cosine|random|zero"),
            (self.init_profile in profiles, "init.profile", "be cosine|random|zero"),
            # random profiles, and every attractor member, draw |u_k| ~ |k|^-sigma
            (self.forcing_sigma > 0.5, "forcing.sigma", "exceed 1/2"),
            (self.init_sigma > 0.5, "init.sigma", "exceed 1/2"),
            (self.forcing_target_l2 > 0, "forcing.target_l2", "be positive"),
            (self.init_target_l2 > 0, "init.target_l2", "be positive"),
            # numpy's generators take no negative seed
            (self.forcing_seed >= 0, "forcing.seed", "be >= 0"),
            (self.init_seed >= 0, "init.seed", "be >= 0"),
            (len(set(self.ensemble_seeds)) == len(self.ensemble_seeds) >= 4
             and min(self.ensemble_seeds) >= 0, "ensemble.seeds",
             "hold at least 4 distinct seeds, every seed >= 0"),
            (len({f"{s:g}" for s in self.s_values}) == len(self.s_values) >= 1  # CSV names
             and min(self.s_values) >= 0, "s.values", "be nonempty, >= 0 and distinct to 6 digits"),
            (len(set(self.ladder_k)) == len(self.ladder_k) >= 3
             and all(K >= 1 for K in self.ladder_k), "ladder.k", "hold at least 3 distinct K >= 1"),
            (0 < self.nf_dt < self.nf_time, "nf.dt", f"lie in (0, nf.time = {self.nf_time})"),
            (1 <= self.identities_radius <= INT64_SAFE_RADIUS, "identities.radius",
             f"lie in 1..{INT64_SAFE_RADIUS}"),
            (self.identities_k >= 1, "identities.k", "be >= 1"),
            # the constant estimates compare each rung with the one below it;
            # B vanishes at K = 1, which would divide the bilinear growth by 0
            (len(set(self.constants_k)) == len(self.constants_k) >= 2
             and all(K >= 2 for K in self.constants_k),
             "constants.k", "hold at least two distinct K, every K >= 2"),
            (self.constants_trials >= 0, "constants.trials", "be >= 0"),
            (self.constants_eps and len(set(self.constants_eps)) == len(self.constants_eps)
             and all(0 < eps < EPS_LIMIT for eps in self.constants_eps),
             "constants.eps", "be nonempty and distinct with every eps in (0, 1/22)"),
            (self.rho_trials >= 1, "rho.trials", "be >= 1"),
        ):
            if not holds:
                value = getattr(self, key.replace(".", "_"))
                raise ConfigError(f"{key} must {rule}, got {value!r}")

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_k)

    def step_size(self, K: int = 0) -> float:  # h = 0: the default step at K (0: grid.k)
        return self.h if self.h > 0 else default_step(K or self.grid_k)

    def to_mapping(self, keys=None) -> dict:
        """The dotted keys, only those in keys if given, with their values."""
        out = {_key(f.name): getattr(self, f.name) for f in fields(self)}
        return {key: list(val) if isinstance(val, tuple) else val for key, val in out.items()
                if keys is None or key in keys}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        lookup = {_key(f.name): f.name for f in fields(cls)}
        kwargs = {}
        for key, val in mapping.items():
            if key not in lookup:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[lookup[key]] = tuple(val) if isinstance(val, list) else val
        return cls(**kwargs)

    def hash(self, keys=None) -> str:
        canon = json.dumps(self.to_mapping(keys), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_field(grid: GridSpec, profile: str, *, amplitude=1.0, mode=1,
                sigma=1.5, seed=0, target_l2=1.0, mode_key="mode") -> CoefSeq:
    """Resolve a named field profile to coefficients; a cosine mode outside
    1..K raises ConfigError naming mode_key."""
    if profile == "zero":
        return CoefSeq.zeros(grid)
    if profile == "cosine":
        if not 1 <= mode <= grid.K:
            raise ConfigError(f"{mode_key} must lie in 1..K = {grid.K}, got {mode}")
        return CoefSeq.cosine(grid, mode=mode, amplitude=amplitude)
    if profile == "random":
        return random_rough_state(grid, sigma, seed=seed, target_l2=target_l2)
    raise ConfigError(f"unknown profile {profile!r}")


def forcing_for(cfg: RunConfig, grid: GridSpec | None = None) -> CoefSeq:
    return build_field(
        grid or cfg.grid(), cfg.forcing_profile, amplitude=cfg.forcing_amplitude,
        mode=cfg.forcing_mode, sigma=cfg.forcing_sigma, seed=cfg.forcing_seed,
        target_l2=cfg.forcing_target_l2, mode_key="forcing.mode",
    )


def initial_state_for(cfg: RunConfig, grid: GridSpec | None = None) -> CoefSeq:
    return build_field(
        grid or cfg.grid(), cfg.init_profile, amplitude=cfg.init_amplitude,
        mode=cfg.init_mode, sigma=cfg.init_sigma, seed=cfg.init_seed,
        target_l2=cfg.init_target_l2, mode_key="init.mode",
    )


def flow_params_for(cfg: RunConfig, grid: GridSpec | None = None, h: float = 0.0) -> FlowParams:
    """The flow of every runner: cfg's gamma, forcing and scheme on grid at step h (0:
    cfg's step there).  A gamma so small that 2||f||/gamma overflows is a ConfigError."""
    grid = grid or cfg.grid()
    forcing = forcing_for(cfg, grid)
    if cfg.gamma > 0 and not np.isfinite(2.0 * forcing.l2() / cfg.gamma):
        raise ConfigError(f"gamma = {cfg.gamma:g} is too small: 2||f||/gamma overflows")
    return FlowParams(cfg.gamma, forcing, h or cfg.step_size(grid.K), cfg.scheme)


def _check_sobolev_weights(cfg: RunConfig, K: int) -> None:
    """The H^s norms of a run on modes up to K weigh mode K by K^{2s}.  An
    s.values entry for which that overflows would make them inf or nan in
    the CSVs and verdicts, so it is a ConfigError naming s.values and K."""
    with np.errstate(over="ignore"):
        for s in cfg.s_values:
            if not np.isfinite(np.float64(K) ** (2.0 * s)):
                raise ConfigError(f"s.values entry {s:g} is too large: the H^s weight "
                                  f"K^(2s) overflows at K = {K}")


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
        }


@dataclass
class RunReport:
    """Machine-readable outcome: verdicts, measured quantities, provenance."""

    experiment: str
    config: RunConfig
    checks: list[Check] = field(default_factory=list)
    measured: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    trajectories: dict[str, TrajectoryRecord] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def check(self, name: str, measured: float, tolerance: float, *, op: str = "le"):
        ok = measured <= tolerance if op == "le" else measured >= tolerance
        self.checks.append(Check(name, bool(ok), float(measured), float(tolerance)))

    def content_dict(self) -> dict:
        """Deterministic part of the report (hashed / compared byte-for-byte)."""
        return {
            "experiment": self.experiment,
            "config": self.config.to_mapping(CONFIG_KEYS[self.experiment]),
            "config_hash": self.config.hash(CONFIG_KEYS[self.experiment]),
            "passed": self.passed,
            "verdicts": [c.as_dict() for c in self.checks],
            "measured": _jsonable(self.measured),
            "versions": {
                "fdkdv": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _timed(report: RunReport, t0: float) -> RunReport:
    report.wall_time_s = time.perf_counter() - t0
    return report


def _horizon_failure(
    experiment: str, cfg: RunConfig, t0: float, diagnostic: str, **trajectories: TrajectoryRecord
) -> RunReport:
    """The report of a run whose horizon was too short to measure its claim:
    a diagnostic, not a theory violation, so one verdict that fails by
    construction and the reason in measured["diagnostic"], with the
    trajectories it judged."""
    report = RunReport(experiment, cfg, trajectories=trajectories)
    report.check("horizon_sufficient", 1.0, 0.0)
    report.measured["diagnostic"] = diagnostic
    return _timed(report, t0)


def run_energy_envelope(cfg: RunConfig) -> RunReport:
    """Norm stays under the closed-form envelope at every sample; the ball
    of radius ||f||/gamma is invariant when the data starts inside it."""
    t0 = time.perf_counter()
    _check_sobolev_weights(cfg, cfg.grid_k)
    grid = cfg.grid()
    params = flow_params_for(cfg, grid)
    u0 = initial_state_for(cfg, grid)
    traj = evolve(u0, cfg.T, params, sample_every=cfg.sample_stride)

    u0_l2, f_l2 = u0.l2(), params.forcing.l2()
    env = energy_envelope(traj.dense_times, u0_l2, f_l2, cfg.gamma)
    violation = float(np.max(traj.dense_l2 - env))
    report = RunReport("energy_envelope", cfg, trajectories={"trajectory": traj})
    report.check("envelope_violation", violation, ENVELOPE_TOL)
    report.measured["max_envelope_violation"] = violation
    report.measured["u0_l2"] = u0_l2
    report.measured["forcing_l2"] = f_l2

    if f_l2 > 0 and u0_l2 <= (ball_radius := f_l2 / cfg.gamma) + 1e-12:
        ball_violation = float(np.max(traj.dense_l2) - ball_radius)
        report.check("ball_invariance_violation", ball_violation, ENVELOPE_TOL)
        report.measured["ball_radius"] = ball_radius
        report.measured["max_ball_violation"] = ball_violation
    return _timed(report, t0)


def predicted_absorption_time(u0_l2: float, f_l2: float, gamma: float) -> float:
    """First time the envelope itself dips under 2||f||/gamma."""
    radius = f_l2 / gamma
    if u0_l2 <= 2.0 * radius:
        return 0.0
    return float(np.log((u0_l2 - radius) / radius) / gamma)


def run_absorbing_ball(envelope: RunReport) -> RunReport:
    """Judge the trajectory of an energy-envelope run, without integrating:
    measure the first time after which its norm stays below 2||f||/gamma and
    compare against the envelope prediction.  The report names that
    trajectory "absorbing", whether the verdict passes or fails."""
    t0 = time.perf_counter()
    if envelope.experiment != "energy_envelope":
        raise ConfigError(f"absorbing ball reads energy_envelope reports, not {envelope.experiment!r}")
    cfg, traj = envelope.config, envelope.trajectories["trajectory"]
    if traj.forcing_l2 == 0.0:
        raise ConfigError("absorbing-ball experiment needs nonzero forcing")

    radius = 2.0 * traj.forcing_l2 / cfg.gamma
    t_star = first_containment_time(traj, radius)
    if t_star is None:
        return _horizon_failure("absorbing_ball", cfg, t0, (
            f"horizon T={cfg.T} too short: trajectory has not settled under "
            f"2||f||/gamma = {radius:.6g}"
        ), absorbing=traj)
    t_pred = predicted_absorption_time(traj.l2_norms[0], traj.forcing_l2, cfg.gamma)
    report = RunReport("absorbing_ball", cfg, trajectories={"absorbing": traj})
    report.check("absorption_time", t_star, t_pred + cfg.step_size())
    report.measured.update(
        {
            "ball_radius": radius,
            "measured_absorption_time": t_star,
            "predicted_absorption_time": t_pred,
        }
    )
    return _timed(report, t0)


def first_containment_time(traj: TrajectoryRecord, radius: float) -> float | None:
    """Earliest solver time from which the per-step norm of an evolved
    record (dense_l2) stays strictly inside radius."""
    inside = traj.dense_l2 < radius
    if not inside[-1]:
        return None
    # last index that was outside; containment starts right after
    outside = np.nonzero(~inside)[0]
    if outside.size == 0:
        return 0.0
    return float(traj.dense_times[outside[-1] + 1])


def run_smoothing_ladder(cfg: RunConfig) -> RunReport:
    """Nonlinear-remainder boundedness across a truncation ladder.

    For each K in the ladder, the same random profile (same seed and decay)
    is drawn and rescaled, the flow is integrated, and the sup over samples
    of the H^s gap to the damped Airy evolution is recorded.  The ladder
    passes when the top-rung gap ratio stays under 1.05 while the initial
    data's H^s norm grows by at least 1.3x per doubling (geometric mean),
    i.e. the gap stays bounded on a family unbounded in H^s.  A restarted
    variant measures the same gap from the sample nearest RESTART_FRACTION * T
    = T/2 onward.  That is never the last sample, at T: every earlier sample
    lies at least as near T/2, and argmin takes the first of a tie.
    """
    t0 = time.perf_counter()
    ladder = tuple(sorted(cfg.ladder_k))
    _check_sobolev_weights(cfg, ladder[-1])
    report = RunReport("smoothing_ladder", cfg)
    per_rung: dict[int, dict] = {}
    for K in ladder:
        grid = GridSpec(K)
        params = flow_params_for(cfg, grid)
        u0 = initial_state_for(cfg, grid)
        u0_hs = {s: sobolev_norm(u0, s) for s in cfg.s_values}
        if not all(u0_hs.values()):
            # zero data, or data so small that its H^s norms underflow
            raise ConfigError(
                f"init.profile = {cfg.init_profile!r} (init.target_l2 = {cfg.init_target_l2:g}) "
                f"gives u0 an H^s norm of 0 at K = {K}; the smoothing ladder divides by "
                "u0's H^s norms, which must be nonzero and grow along the ladder"
            )
        traj = evolve(u0, cfg.T, params, sample_every=cfg.sample_stride)
        report.trajectories[f"smoothing_K{K}"] = traj

        t, coefs = traj.times, traj.coefs
        i0 = int(np.argmin(np.abs(t - RESTART_FRACTION * cfg.T)))
        rung = {"u0_hs": u0_hs, "gap_sup": {}, "restart_gap_sup": {}}
        for s in cfg.s_values:
            gaps = smoothing_gap(u0.coef, coefs, t, cfg.gamma, s)
            restart = smoothing_gap(coefs[i0], coefs[i0:], t[i0:] - t[i0], cfg.gamma, s)
            rung["gap_sup"][s] = float(np.max(gaps))
            rung["restart_gap_sup"][s] = float(np.max(restart))
        per_rung[K] = rung

    report.measured["ladder"] = {
        str(K): {k: {str(s): v for s, v in d.items()} for k, d in rung.items()}
        for K, rung in per_rung.items()
    }
    top, mid = ladder[-1], ladder[-2]
    for s in cfg.s_values:
        if not (per_rung[mid]["gap_sup"][s] and per_rung[mid]["restart_gap_sup"][s]):
            # the nonlinear remainder of tiny unforced data underflows
            raise ConfigError(
                f"the K = {mid} rung's H^{s:g} gap sup or restart gap sup is 0, and the "
                f"gap-ratio verdicts divide by them; raise init.target_l2 = "
                f"{cfg.init_target_l2:g} or add forcing"
            )
        gap_ratio = per_rung[top]["gap_sup"][s] / per_rung[mid]["gap_sup"][s]
        restart_ratio = (
            per_rung[top]["restart_gap_sup"][s] / per_rung[mid]["restart_gap_sup"][s]
        )
        norms = [per_rung[K]["u0_hs"][s] for K in ladder]
        ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
        growth = float(np.exp(np.mean(np.log(ratios))))
        report.check(f"gap_ratio_top_s{s}", gap_ratio, LADDER_GAP_GROWTH)
        report.check(f"restart_gap_ratio_top_s{s}", restart_ratio, LADDER_GAP_GROWTH)
        report.check(f"u0_norm_growth_s{s}", growth, LADDER_NORM_GROWTH, op="ge")
        report.measured[f"u0_norm_ratios_s{s}"] = ratios
    return _timed(report, t0)


def run_kdv_limit(cfg: RunConfig) -> RunReport:
    """gamma = f = 0 (the default config) sanity run: the l2 norm is conserved,
    so the drift is pure time-integrator error; cfg's gamma and f are run as
    given, and a nonzero one shows as drift."""
    t0 = time.perf_counter()
    _check_sobolev_weights(cfg, cfg.grid_k)
    grid = cfg.grid()
    params = flow_params_for(cfg, grid)
    u0 = initial_state_for(cfg, grid)
    traj = evolve(u0, cfg.T, params, sample_every=cfg.sample_stride)
    drift = float(np.max(np.abs(traj.dense_l2 - u0.l2())))
    report = RunReport("kdv_limit", cfg, trajectories={"trajectory": traj})
    report.check("conservation_drift", drift, CONSERVATION_TOL)
    report.measured["max_conservation_drift"] = drift
    return _timed(report, t0)


def run_attractor_probe(cfg: RunConfig) -> RunReport:
    """Ensemble probe of the attracting ball: late-time H^s radii must agree
    across members with very different initial-data norms (the radius
    depends on s, gamma, ||f|| but not on ||u0||).

    Member i of M starts at ||u0|| = 0.5 * 2^(3i / (M - 1)), geometric over
    0.5..4 ((0.5, 1, 2, 4) for four seeds); its radius is the sup of the H^s
    norm over the last ATTRACTOR_WINDOW (quarter) of the time after it settles
    into the ball of radius 2||f||/gamma.
    """
    t0 = time.perf_counter()
    _check_sobolev_weights(cfg, cfg.grid_k)
    if cfg.T * cfg.gamma < 10.0:
        return _horizon_failure("attractor_probe", cfg, t0, (
            f"horizon T={cfg.T} too short: T*gamma = {cfg.T * cfg.gamma:.3g} is below 10"
        ))
    grid = cfg.grid()
    params = flow_params_for(cfg, grid)
    f = params.forcing
    s = cfg.s_values[0]
    radius_ball = 2.0 * f.l2() / cfg.gamma
    report = RunReport("attractor_probe", cfg)
    m = len(cfg.ensemble_seeds)
    targets = [0.5 * 2.0 ** (3 * i / (m - 1)) for i in range(m)]
    members = [
        random_rough_state(grid, cfg.init_sigma, seed=seed, target_l2=target)
        for seed, target in zip(cfg.ensemble_seeds, targets)
    ]
    initial_hs = [sobolev_norm(u0, s) for u0 in members]
    try:
        # ETDRK4 only: IFRK4's stage quadrature saturates as |k^3 h| grows
        trajs = evolve_batch(members, cfg.T, params, sample_every=cfg.sample_stride,
                             coarsen=params.scheme == "etdrk4")
    except StepFailureError as exc:
        seed = cfg.ensemble_seeds[exc.member]
        raise StepFailureError(exc.time, exc.member, f"member seed={seed}") from exc
    # the batch's step bookkeeping, the same on every member's record
    report.measured["solver_steps"] = sum(trajs[0].step_counts.values())
    report.measured["step_counts"] = trajs[0].step_counts
    report.measured["max_convective_number"] = trajs[0].max_convective
    radii = {}
    for seed, target, traj in zip(cfg.ensemble_seeds, targets, trajs):
        report.trajectories[f"attractor_seed{seed}"] = traj
        if f.l2() > 0:
            t_star = first_containment_time(traj, radius_ball)
            if t_star is None:
                return _horizon_failure("attractor_probe", cfg, t0,
                                        f"member seed={seed} never settled into the ball")
        else:
            t_star = 0.0  # unforced: everything decays, no absorbing transient
        window_start = t_star + (1.0 - ATTRACTOR_WINDOW) * (cfg.T - t_star)
        sel = traj.times >= window_start
        if not sel.any():
            return _horizon_failure("attractor_probe", cfg, t0,
                                    f"late-time window is empty for seed={seed}")
        radii[(seed, target)] = float(np.max(sobolev_norms(traj.coefs[sel], s)))
    vals = np.array(list(radii.values()))
    if f.l2() > 0:
        spread = float(np.max(vals) / np.min(vals))
        report.check("late_time_radius_spread", spread, ATTRACTOR_SPREAD)
        report.measured["radius_spread"] = spread
    else:
        # pure decay: every late-time radius collapses toward zero
        decay = float(np.max(vals) / max(np.max(initial_hs), 1e-300))
        report.check("late_time_radius_decay", decay, 1e-2)
        report.measured["radius_decay_factor"] = decay
    report.measured["late_time_radii"] = {
        f"seed{seed}_l2{target}": r for (seed, target), r in radii.items()
    }
    return _timed(report, t0)


# The ten-configuration default suite for the envelope and absorbing-ball
# studies at K = 128, h = 1e-3, T = 20.  gamma = 0.5 members keep the ball
# radius (and so the late-time amplitude) modest: the explicit treatment of
# convection needs K * max|u| * h well under one.
DEFAULT_ENVELOPE_SUITE: tuple[RunConfig, ...] = (
    RunConfig(gamma=1.0, forcing_profile="zero", init_sigma=2.5, init_seed=7, init_target_l2=1.0),
    RunConfig(gamma=1.0, forcing_amplitude=1.0, init_sigma=2.5, init_seed=8,
              init_target_l2=float(np.sqrt(0.5))),
    RunConfig(gamma=0.5, forcing_amplitude=0.5, init_sigma=2.5, init_seed=9, init_target_l2=1.5),
    RunConfig(gamma=0.5, forcing_profile="random", forcing_sigma=3.0, forcing_seed=31,
              forcing_target_l2=0.25, init_profile="cosine", init_amplitude=1.0),
    RunConfig(gamma=2.0, forcing_amplitude=2.0, forcing_mode=2, init_sigma=3.0,
              init_seed=10, init_target_l2=2.0),
    RunConfig(gamma=2.0, forcing_profile="zero", init_profile="cosine", init_amplitude=2.0),
    RunConfig(gamma=0.5, forcing_profile="zero", init_sigma=2.5, init_seed=11, init_target_l2=1.2),
    RunConfig(gamma=1.0, forcing_profile="random", forcing_sigma=2.5, forcing_seed=21,
              forcing_target_l2=1.0, init_sigma=2.5, init_seed=12, init_target_l2=0.5),
    RunConfig(gamma=2.0, forcing_amplitude=1.0, init_profile="zero"),
    RunConfig(gamma=1.0, forcing_profile="random", forcing_sigma=3.0, forcing_seed=22,
              forcing_target_l2=0.75, init_sigma=2.2, init_seed=13, init_target_l2=1.2),
)


def default_smoothing_config(s_values: tuple[float, ...] = (0.5, 0.9)) -> RunConfig:
    # etdrk4 + h = 2.5e-4: rough sigma = 0.55 data at K = 256 is outside the
    # integrating-factor scheme's stable/accurate envelope
    return RunConfig(
        gamma=0.5, forcing_amplitude=1.0, init_sigma=0.55, init_seed=7,
        init_target_l2=1.0, h=2.5e-4, scheme="etdrk4", T=20.0,
        s_values=s_values, sample_stride=200, ladder_k=(64, 128, 256),
    )


def default_attractor_config() -> RunConfig:
    return RunConfig(
        grid_k=64, gamma=0.5, forcing_amplitude=1.0, init_sigma=1.2,
        h=5e-4, scheme="etdrk4", T=60.0, s_values=(0.5,), sample_stride=100,
    )


def default_kdv_limit_config() -> RunConfig:
    return RunConfig(
        grid_k=128, gamma=0.0, init_profile="cosine", init_amplitude=1.0,
        forcing_profile="zero", h=1e-3, T=10.0, sample_stride=1000,
    )


def default_residual_configs() -> tuple[RunConfig, ...]:
    """Three distinct configurations for the normal-form residual study."""
    return (
        RunConfig(grid_k=32, gamma=1.0, forcing_amplitude=1.0, init_sigma=1.5,
                  init_seed=7, init_target_l2=0.5, nf_time=0.5, nf_dt=2e-5),
        RunConfig(grid_k=32, gamma=0.5, forcing_amplitude=0.5, forcing_mode=2,
                  init_sigma=2.0, init_seed=7, init_target_l2=1.0, nf_time=0.3, nf_dt=2e-5),
        RunConfig(grid_k=24, gamma=2.0, forcing_amplitude=1.0, init_sigma=1.2,
                  init_seed=7, init_target_l2=0.8, nf_time=0.4, nf_dt=2e-5),
    )


# Step of the approach to t - dt (dt itself when larger) before the two
# stencil steps at dt; the ODE is autonomous, so any state of the trajectory
# near t - dt starts the identity.  Against marching at dt it moved the
# residuals and halving ratios of the 64 benchmark (case, config) pairs at
# K = 64 by at most 1.05e-3 relative (3.5e-4 with 5e-5 steps, 7.3e-4 with
# 2.5e-5: not monotone in the step, so central-difference roundoff), and
# those of the three default_residual_configs by at most 1.7e-6.  A 1e-3
# approach moved them by up to 6.9% and 1.8%, IFRK4 being far past
# |K^3 h| = 1 there.
STENCIL_APPROACH_STEP = 1e-4


def stencil_states(u0: CoefSeq, params: FlowParams, t: float, dt: float) -> tuple[CoefSeq, ...]:
    """The states at t - dt, t, t + dt, in that order, needed by the
    central-difference residual: integrate to t - dt with steps of
    max(dt, STENCIL_APPROACH_STEP) (the last one shortened to land there),
    then run two steps of dt from there."""
    approach = replace(params, h=max(dt, STENCIL_APPROACH_STEP))
    s0 = evolve(u0, t - dt, approach, sample_every=10**9).coefs[-1]
    stencil = evolve(CoefSeq(u0.grid, s0), 2.0 * dt, replace(params, h=dt)).coefs
    return tuple(CoefSeq(u0.grid, c) for c in stencil)


def run_normal_form_residual(cfg: RunConfig) -> RunReport:
    """Residual of the differentiated normal-form identity at (nf.time,
    nf.dt) and at the halved dt: small at the default resolution and
    shrinking ~4x, i.e. pure central-difference error.  Each stencil comes
    from :func:`stencil_states`, so only its two steps are taken at dt and
    nf.time need not be a multiple of nf.dt."""
    from .normal_form import NormalFormFrame, normal_form_residual

    t0 = time.perf_counter()
    grid = cfg.grid()
    params = flow_params_for(cfg, grid, h=cfg.nf_dt)
    u0 = initial_state_for(cfg, grid)
    frame = NormalFormFrame.from_forcing(params.forcing, cfg.gamma)
    residuals = {}
    for dt in (cfg.nf_dt, cfg.nf_dt / 2.0):
        states = stencil_states(u0, params, cfg.nf_time, dt)
        residuals[dt] = normal_form_residual(states, frame, cfg.nf_time, dt)
    ratio = residuals[cfg.nf_dt] / residuals[cfg.nf_dt / 2.0]
    report = RunReport("normal_form_residual", cfg)
    report.check("residual_at_default_dt", residuals[cfg.nf_dt], RESIDUAL_TOL)
    report.check("halving_ratio_low", ratio, RESIDUAL_HALVING[0], op="ge")
    report.check("halving_ratio_high", ratio, RESIDUAL_HALVING[1])
    report.measured["residuals"] = {f"{dt:.3e}": r for dt, r in residuals.items()}
    report.measured["halving_ratio"] = ratio
    return _timed(report, t0)


def run_identity_checks(cfg: RunConfig) -> RunReport:
    """Exact phase identities (exhaustive + wide-integer samples) and the
    resonant-cancellation residual on a random state."""
    from .lattice import (
        verify_cubic_phase_exhaustive,
        verify_cubic_phase_sampled,
        verify_quartic_phase_exhaustive,
        verify_quartic_phase_sampled,
    )
    from .normal_form import resonant_cancellation_residual

    t0 = time.perf_counter()
    report = RunReport("identity_checks", cfg)
    radius = cfg.identities_radius
    n_cubic = verify_cubic_phase_exhaustive(radius)
    n_quartic = verify_quartic_phase_exhaustive(radius)
    verify_cubic_phase_sampled(10**6, trials=500, seed=cfg.init_seed)
    verify_quartic_phase_sampled(10**6, trials=500, seed=cfg.init_seed)
    # the exhaustive checkers raise on any mismatch; reaching here means zero
    report.check("cubic_phase_mismatches", 0.0, 0.0)
    report.check("quartic_phase_mismatches", 0.0, 0.0)
    grid = GridSpec(cfg.identities_k)
    state = random_rough_state(grid, 0.8, seed=cfg.init_seed, target_l2=1.0)
    residual = resonant_cancellation_residual(state)
    report.check("resonant_cancellation_residual", residual, IDENTITY_RESIDUAL_TOL)
    report.measured.update(
        {
            "cubic_pairs_checked": n_cubic,
            "quartic_triples_checked": n_quartic,
            "wide_integer_samples": 1000,
            "resonant_cancellation_residual": residual,
        }
    )
    return _timed(report, t0)


def run_constant_estimates(cfg: RunConfig) -> RunReport:
    """Lattice suprema and operator-norm constants with stability-in-K
    assertions: the phase lower bound, the weighted multiplier sup, the
    bilinear constant, and the cubic-term bound on random trials."""
    from .lattice import (
        LatticeBudget,
        bilinear_constant_ladder,
        resonance_factor_min_ratio,
        smoothing_multiplier_sup,
    )
    if any(s >= 1.0 for s in cfg.s_values):
        raise ConfigError(f"s.values must lie below 1 for the bilinear bound, got {cfg.s_values}")
    t0 = time.perf_counter()
    report = RunReport("constant_estimates", cfg)
    ks = tuple(sorted(cfg.constants_k))

    mins = {K: resonance_factor_min_ratio(K)[0] for K in ks}
    report.check("phase_lower_bound_stability", mins[ks[-1]], 0.9 * mins[ks[0]], op="ge")
    report.measured["phase_lower_bound"] = {str(K): m for K, m in mins.items()}

    sups = {}
    for s in cfg.s_values:
        for eps in cfg.constants_eps:
            ladder = [smoothing_multiplier_sup(LatticeBudget(K, s, eps))[0] for K in ks]
            sups[f"s{s}_eps{eps}"] = ladder
            for i in range(len(ladder) - 1):
                report.check(
                    f"multiplier_growth_s{s}_eps{eps}_K{ks[i + 1]}",
                    ladder[i + 1] / ladder[i],
                    CONSTANT_GROWTH,
                )
    report.measured["multiplier_sups"] = sups

    bilinear = {}
    for s in cfg.s_values:
        ladder = bilinear_constant_ladder(ks, s, trials=cfg.constants_trials, seed=cfg.init_seed)
        bilinear[f"s{s}"] = ladder
        for i in range(len(ladder) - 1):
            report.check(
                f"bilinear_constant_growth_s{s}_K{ks[i + 1]}",
                ladder[i + 1] / ladder[i],
                CONSTANT_GROWTH,
            )
    report.measured["bilinear_constants"] = bilinear

    violations, worst = cubic_bound_trials(ks[-1], cfg.s_values, cfg.rho_trials, cfg.init_seed)
    report.check("cubic_bound_violations", float(violations), 0.0)
    report.measured["cubic_bound_trials"] = cfg.rho_trials
    report.measured["cubic_bound_worst_ratio"] = worst
    return _timed(report, t0)


# Trials per block of cubic_bound_trials: a block's fields and cubic terms are
# arrays of this many rows, made once and refilled, so memory does not grow
# with the trial count.
CUBIC_TRIAL_BLOCK = 256


def cubic_bound_trials(K: int, s_values, trials: int, seed: int) -> tuple[int, float]:
    """(violations, worst ratio) of ||R(u)||_{H^s} <= ||u||^3, R the
    resonant cubic, over `trials` random rough states at truncation K and
    every s in s_values; a violation is one (trial, s) with ratio > 1.

    Trial i draws sigma in [0.55, 2), a target l2 norm in [0.1, 4) and a
    phase seed from one generator seeded with seed, in that order, and its
    field is random_rough_state(GridSpec(K), sigma, that seed, target) bit
    for bit.  Fields, cubic terms and norms are formed CUBIC_TRIAL_BLOCK
    trials at a time.
    """
    from .normal_form import resonant_cubic_coefs

    rng = np.random.default_rng(seed)
    block = np.empty((min(trials, CUBIC_TRIAL_BLOCK), K + 1), dtype=np.complex128)
    violations, worst = 0, 0.0
    for start in range(0, trials, CUBIC_TRIAL_BLOCK):
        rows = block[: min(CUBIC_TRIAL_BLOCK, trials - start)]
        draws = [(rng.uniform(0.55, 2.0), rng.uniform(0.1, 4.0), int(rng.integers(2**31)))
                 for _ in range(len(rows))]
        sigmas, targets, seeds = zip(*draws)
        rough_spectra(K, sigmas, seeds, targets, out=rows)
        l2_cubed = sobolev_norms(rows, 0.0) ** 3
        cubic = resonant_cubic_coefs(rows)
        for s in s_values:
            ratio = sobolev_norms(cubic, s) / l2_cubed
            worst = max(worst, float(ratio.max()))
            violations += int(np.count_nonzero(ratio > 1.0))
    return violations, worst
