"""Acceptance suite: every top-level claim at its pinned tolerance.

Each test prints one pass/fail line (visible with -s); the assertions
themselves carry the tolerances, nothing is deferred to later calibration.
Expected wall time for the whole module is a few minutes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fdkdv.experiments import (
    DEFAULT_ENVELOPE_SUITE,
    RunConfig,
    default_attractor_config,
    default_kdv_limit_config,
    default_residual_configs,
    default_smoothing_config,
    run_absorbing_ball,
    run_attractor_probe,
    run_constant_estimates,
    run_energy_envelope,
    run_identity_checks,
    run_kdv_limit,
    run_normal_form_residual,
    run_smoothing_ladder,
)
from fdkdv.flow import FlowParams, evolve
from fdkdv.spectral import CoefSeq, GridSpec


def _announce(name: str, ok: bool, detail: str = ""):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def envelope_reports():
    return [run_energy_envelope(cfg) for cfg in DEFAULT_ENVELOPE_SUITE]


@pytest.fixture(scope="module")
def constants_report():
    return run_constant_estimates(RunConfig(s_values=(0.5, 0.9), rho_trials=10**4))


def test_a1_energy_envelope(envelope_reports):
    """A1: ten configs at K=128, h=1e-3, T=20 stay under the closed-form
    envelope to 1e-6 at every solver step, under a minute each."""
    assert len(envelope_reports) == 10
    worst = max(r.measured["max_envelope_violation"] for r in envelope_reports)
    slowest = max(r.wall_time_s for r in envelope_reports)
    for r in envelope_reports:
        assert r.config.grid_k == 128 and r.config.step_size() == pytest.approx(1e-3)
        assert r.config.T == 20.0
    ok = all(r.passed for r in envelope_reports) and slowest < 60.0
    _announce("A1 energy envelope", ok, f"worst violation {worst:.3e}, slowest {slowest:.1f}s")


def test_a2_invariant_and_absorbing_balls(envelope_reports):
    """A2: ball invariance to 1e-6 on the inside-ball configs; measured
    absorption time within the envelope prediction plus one step."""
    ball_checks = [
        c
        for r in envelope_reports
        for c in r.checks
        if c.name == "ball_invariance_violation"
    ]
    assert ball_checks, "no config started inside the invariant ball"
    worst_ball = max(c.measured for c in ball_checks)

    reports = [
        run_absorbing_ball(r) for r in envelope_reports if r.measured["forcing_l2"] > 0
    ]
    margin = max(
        r.measured["measured_absorption_time"] - r.measured["predicted_absorption_time"]
        for r in reports
    )
    ok = (
        all(c.passed for c in ball_checks)
        and all(r.passed for r in reports)
        and worst_ball <= 1e-6
    )
    _announce(
        "A2 invariant/absorbing balls",
        ok,
        f"worst ball violation {worst_ball:.3e}, worst T* margin {margin:.3e} (limit h=1e-3)",
    )


def test_a3_exact_identities():
    """A3: phase identities exact over |k| <= 1000 (and wide-integer samples
    at |k| <= 1e6); resonant cancellation residual <= 1e-12 at K=64."""
    t0 = time.perf_counter()
    report = run_identity_checks(RunConfig(identities_radius=1000, identities_k=64))
    wall = time.perf_counter() - t0
    residual = report.measured["resonant_cancellation_residual"]
    ok = report.passed and wall < 60.0
    _announce(
        "A3 exact identities",
        ok,
        f"{report.measured['cubic_pairs_checked']} pairs, "
        f"{report.measured['quartic_triples_checked']} triples, "
        f"cancellation residual {residual:.2e}, {wall:.0f}s",
    )


def test_a4_smoothing_ladder():
    """A4: H^s gap to the damped Airy flow stays bounded (top ratio <= 1.05)
    across K in {64,128,256} while the data family grows >= 1.3x per
    doubling in H^s, for s = 0.5 and s = 0.9; under 15 minutes."""
    t0 = time.perf_counter()
    report = run_smoothing_ladder(replace(default_smoothing_config(), s_values=(0.5, 0.9)))
    wall = time.perf_counter() - t0
    gaps = {c.name: c.measured for c in report.checks}
    ok = report.passed and wall < 900.0
    _announce(
        "A4 smoothing ladder",
        ok,
        f"gap ratios s=0.5: {gaps['gap_ratio_top_s0.5']:.4f}, "
        f"s=0.9: {gaps['gap_ratio_top_s0.9']:.4f}; "
        f"norm growth {gaps['u0_norm_growth_s0.5']:.4f}/{gaps['u0_norm_growth_s0.9']:.4f}; "
        f"{wall:.0f}s",
    )


def test_a5_normal_form_residual():
    """A5: the differentiated normal-form identity holds along trajectories:
    residual <= 1e-5 at the default resolution, shrinking ~4x when the
    differencing step halves, on three distinct configs."""
    reports = [run_normal_form_residual(cfg) for cfg in default_residual_configs()]
    detail = "; ".join(
        f"r={r.checks[0].measured:.2e}, ratio={r.measured['halving_ratio']:.2f}"
        for r in reports
    )
    _announce("A5 normal-form residual", all(r.passed for r in reports), detail)


def test_a6_lattice_inequalities(constants_report):
    """A6: multiplier sup growth <= 5% per doubling at K in {16,32,64} for
    (s, eps) in {0.5, 0.9} x {0.005, 0.01}; phase lower bound at K=64 at
    least 0.9x its K=16 value."""
    checks = [
        c
        for c in constants_report.checks
        if c.name.startswith("multiplier_growth") or c.name == "phase_lower_bound_stability"
    ]
    assert len(checks) == 1 + 2 * 4  # one stability + two doublings x four (s, eps)
    ok = all(c.passed for c in checks) and constants_report.wall_time_s < 300.0
    bounds = constants_report.measured["phase_lower_bound"]
    _announce(
        "A6 lattice inequalities",
        ok,
        f"phase bound {bounds['16']:.4f} -> {bounds['64']:.4f}, "
        f"{constants_report.wall_time_s:.0f}s",
    )


def test_a7_operator_bounds(constants_report):
    """A7: bilinear constant stable (<= 5% growth) across K in {16,32,64};
    cubic-term bound holds on 1e4 random trials with zero violations."""
    checks = [
        c
        for c in constants_report.checks
        if c.name.startswith("bilinear_constant_growth") or c.name == "cubic_bound_violations"
    ]
    assert constants_report.measured["cubic_bound_trials"] == 10**4
    ok = all(c.passed for c in checks)
    _announce(
        "A7 operator bounds",
        ok,
        f"bilinear ladders {constants_report.measured['bilinear_constants']}, "
        f"worst cubic ratio {constants_report.measured['cubic_bound_worst_ratio']:.4f}",
    )


def test_a8_solver_validity():
    """A8: undamped/unforced limit conserves l2 to 1e-8 over T=10 at K=128,
    h=1e-3; integrating-factor scheme self-converges at order >= 3.8;
    K-doubling changes smooth solutions by < 1e-6."""
    kdv = run_kdv_limit(default_kdv_limit_config())
    drift = kdv.measured["max_conservation_drift"]

    u0 = CoefSeq.cosine(GridSpec(32), amplitude=2.0)

    def final(h):
        params = FlowParams(gamma=0.5, forcing=CoefSeq.cosine(GridSpec(32)), h=h)
        return evolve(u0, 1.0, params, sample_every=10**9).coefs[-1]

    sols = {h: final(h) for h in (8e-3, 4e-3, 2e-3)}
    order = float(
        np.log2(
            np.max(np.abs(sols[8e-3] - sols[4e-3]))
            / np.max(np.abs(sols[4e-3] - sols[2e-3]))
        )
    )

    def run_at(K):
        g = GridSpec(K)
        params = FlowParams(gamma=0.5, forcing=CoefSeq.cosine(g), h=1e-3)
        return CoefSeq(g, evolve(CoefSeq.cosine(g), 1.0, params, sample_every=10**9).coefs[-1])

    a, b = run_at(16), run_at(32)
    # full-spectrum l2 norm of the difference on the coarse grid's modes
    tail_change = a.with_coef(a.coef - b.coef[: a.grid.size]).l2()

    ok = kdv.passed and drift <= 1e-8 and order >= 3.8 and tail_change < 1e-6
    _announce(
        "A8 solver validity",
        ok,
        f"drift {drift:.2e}, order {order:.2f}, K-doubling change {tail_change:.2e}",
    )


def test_a9_attractor_probe():
    """A9: late-time H^0.5 radii agree within 10% across initial norms
    {0.5, 1, 2, 4}; under 20 minutes."""
    t0 = time.perf_counter()
    report = run_attractor_probe(default_attractor_config())
    wall = time.perf_counter() - t0
    ok = report.passed and wall < 1200.0
    _announce(
        "A9 attractor probe",
        ok,
        f"radius spread {report.measured['radius_spread']:.5f}, {wall:.0f}s",
    )
