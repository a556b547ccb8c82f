import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fdkdv.experiments
import fdkdv.lattice
from fdkdv.experiments import (
    CUBIC_TRIAL_BLOCK,
    DEFAULT_ENVELOPE_SUITE,
    ConfigError,
    RunConfig,
    RunReport,
    build_field,
    cubic_bound_trials,
    default_attractor_config,
    default_kdv_limit_config,
    default_residual_configs,
    default_smoothing_config,
    first_containment_time,
    flow_params_for,
    predicted_absorption_time,
    run_absorbing_ball,
    run_attractor_probe,
    run_energy_envelope,
    run_identity_checks,
    run_kdv_limit,
    run_smoothing_ladder,
)
from fdkdv.cli import parse_and_dispatch
from fdkdv.flow import FlowParams, StepFailureError, evolve, evolve_batch
from fdkdv.normal_form import resonant_cubic, smoothing_gap
from fdkdv.spectral import CoefSeq, GridSpec, random_rough_state, sobolev_norm


def assert_horizon_failure(report, diagnostic, trajectories=()):
    """A horizon too short to measure is one failed verdict, not an error;
    the report keeps the trajectories it judged."""
    assert not report.passed
    assert [c.as_dict() for c in report.checks] == [
        {"name": "horizon_sufficient", "passed": False, "measured": 1.0, "tolerance": 0.0}
    ]
    assert report.measured == {"diagnostic": diagnostic}
    assert tuple(report.trajectories) == trajectories


class TestRunConfig:
    def test_mapping_round_trip(self):
        cfg = RunConfig(grid_k=64, gamma=0.5, s_values=(0.5, 0.9))
        assert RunConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_dotted_keys(self):
        m = RunConfig().to_mapping()
        assert "grid.k" in m and "forcing.profile" in m and "init.sigma" in m

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="grid.N"):
            RunConfig.from_mapping({"grid.N": 4})

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(forcing_profile="sawtooth")

    def test_hash_sensitivity(self):
        a, b = RunConfig(gamma=1.0), RunConfig(gamma=2.0)
        assert a.hash() != b.hash()
        assert a.hash() == RunConfig(gamma=1.0).hash()

    def test_undamped_limit_needs_zero_forcing(self):
        assert RunConfig(gamma=0.0, forcing_profile="zero").gamma == 0.0
        for bad in ({"gamma": 0.0}, {"gamma": -1.0, "forcing.profile": "zero"}):
            with pytest.raises(ConfigError, match="gamma must be positive, or 0 with forcing"):
                RunConfig.from_mapping(bad)

    def test_default_step_rule(self):
        assert RunConfig(grid_k=128).step_size() == pytest.approx(1e-3)
        assert RunConfig(grid_k=1000).step_size() == pytest.approx(5e-4)
        assert RunConfig(h=2e-4).step_size() == 2e-4

    def test_flow_default_step_follows_the_grid(self):
        # a smoothing rung's grid is not cfg's grid.k = 128, whose default is 1e-3
        assert flow_params_for(RunConfig(), GridSpec(1024)).h == 0.5 / 1024
        assert flow_params_for(RunConfig(h=2e-4), GridSpec(1024)).h == 2e-4
        assert flow_params_for(RunConfig(grid_k=1000)).h == 5e-4

    def test_gamma_whose_ball_radius_overflows_is_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            flow_params_for(RunConfig(gamma=1e-320), GridSpec(16))
        # unforced, the radius is 0 at any positive gamma
        assert flow_params_for(RunConfig(gamma=1e-320, forcing_profile="zero")).gamma == 1e-320


class TestRunReport:
    def test_no_verdict_is_not_a_pass(self):
        report = RunReport("smoothing_ladder", RunConfig())
        assert not report.passed
        report.check("gap", 0.5, 1.0)
        assert report.passed


class TestBuildField:
    def test_profiles(self):
        g = GridSpec(16)
        assert build_field(g, "zero").l2() == 0.0
        cos = build_field(g, "cosine", amplitude=2.0, mode=3)
        assert cos.mode(3) == 1.0
        rnd = build_field(g, "random", sigma=1.0, seed=3, target_l2=2.0)
        assert rnd.l2() == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ConfigError):
            build_field(g, "sawtooth")


class TestEnergyEnvelope:
    def test_small_run_passes(self):
        r = run_energy_envelope(RunConfig(grid_k=32, T=5.0, init_sigma=2.5))
        assert r.passed
        assert r.measured["max_envelope_violation"] <= 1e-6
        assert r.wall_time_s > 0
        assert "trajectory" in r.trajectories

    def test_zero_data_zero_forcing_trivially_passes(self):
        r = run_energy_envelope(
            RunConfig(grid_k=16, T=1.0, forcing_profile="zero", init_profile="zero")
        )
        assert r.passed

    def test_ball_invariance_reported_when_inside(self):
        # start exactly on the invariant ball boundary ||u0|| = ||f||/gamma
        cfg = RunConfig(
            grid_k=32, T=5.0, gamma=1.0, forcing_amplitude=1.0,
            init_sigma=2.5, init_target_l2=float(np.sqrt(0.5)),
        )
        r = run_energy_envelope(cfg)
        names = [c.name for c in r.checks]
        assert "ball_invariance_violation" in names
        assert r.passed

    def test_determinism_of_report_content(self):
        cfg = RunConfig(grid_k=16, T=1.0)
        a, b = run_energy_envelope(cfg), run_energy_envelope(cfg)
        assert a.content_dict() == b.content_dict()


class TestAbsorbingBall:
    def test_crossing_time_against_closed_form(self):
        # gamma = 1, ||f|| = 1, ||u0|| = 3: envelope hits 2||f||/gamma at ln 2
        cfg = RunConfig(
            grid_k=32, T=5.0, gamma=1.0, forcing_profile="cosine",
            forcing_amplitude=float(np.sqrt(2.0)),  # l2 norm 1
            init_sigma=2.5, init_target_l2=3.0,
        )
        assert predicted_absorption_time(3.0, 1.0, 1.0) == pytest.approx(np.log(2.0))
        r = run_absorbing_ball(run_energy_envelope(cfg))
        assert r.passed
        assert r.measured["measured_absorption_time"] <= np.log(2.0) + cfg.step_size()

    def test_already_inside_gives_time_zero(self):
        cfg = RunConfig(grid_k=16, T=2.0, gamma=1.0, init_sigma=2.5, init_target_l2=0.5)
        r = run_absorbing_ball(run_energy_envelope(cfg))
        assert r.measured["measured_absorption_time"] == 0.0

    def test_requires_forcing(self):
        unforced = run_energy_envelope(RunConfig(grid_k=16, T=0.1, forcing_profile="zero"))
        with pytest.raises(ConfigError, match="nonzero forcing"):
            run_absorbing_ball(unforced)

    def test_rejects_other_experiments(self):
        limit = run_kdv_limit(RunConfig(grid_k=16, T=0.1, init_profile="cosine"))
        with pytest.raises(ConfigError, match="energy_envelope reports"):
            run_absorbing_ball(limit)

    def test_short_horizon_diagnosed(self):
        cfg = RunConfig(
            grid_k=16, T=0.01, gamma=0.5, init_sigma=2.5, init_target_l2=4.0
        )
        r = run_absorbing_ball(run_energy_envelope(cfg))
        assert_horizon_failure(
            r, "horizon T=0.01 too short: trajectory has not settled under "
               "2||f||/gamma = 2.82843", ("absorbing",)
        )


class TestFirstContainmentTime:
    def test_containment_from_start(self):
        g = GridSpec(8)
        params = FlowParams(gamma=2.0, forcing=CoefSeq.zeros(g), h=0.01)
        traj = evolve(CoefSeq.cosine(g, amplitude=0.1), 0.1, params, sample_every=1)
        assert first_containment_time(traj, 10.0) == 0.0

    def test_never_contained(self):
        g = GridSpec(8)
        params = FlowParams(gamma=2.0, forcing=CoefSeq.zeros(g), h=0.01)
        traj = evolve(CoefSeq.cosine(g), 0.1, params, sample_every=1)
        assert first_containment_time(traj, 1e-9) is None


class TestSmoothingLadder:
    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError):
            run_smoothing_ladder(RunConfig(ladder_k=(32, 64)))

    def test_full_ladder_short_horizon(self):
        # the gap and norm ratios already stabilize over a short horizon;
        # the full T = 20 version runs in the acceptance suite
        cfg = replace(
            default_smoothing_config(), s_values=(0.5,), T=2.0, h=5e-4, sample_stride=400
        )
        r = run_smoothing_ladder(cfg)
        assert r.passed
        ratios = r.measured["u0_norm_ratios_s0.5"]
        assert len(ratios) == 2
        assert all(rr > 1.25 for rr in ratios)
        # what each rung resolves: 3 K^2 h and (3 h)^(-1/2) at h = 5e-4
        assert r.measured["resonance_number"] == pytest.approx(
            {"64": 6.144, "128": 24.576, "256": 98.304}, rel=1e-12)
        assert r.measured["resolved_wavenumber"] == pytest.approx(
            dict.fromkeys(("64", "128", "256"), (1.5e-3) ** -0.5), rel=1e-12)

    def test_smooth_data_degenerates_gracefully(self):
        cfg = RunConfig(
            gamma=0.5, init_sigma=3.0, init_seed=7, init_target_l2=1.0,
            h=5e-4, scheme="etdrk4", T=1.0, s_values=(0.5,),
            sample_stride=400, ladder_k=(16, 32, 64),
        )
        r = run_smoothing_ladder(cfg)
        gap_checks = [c for c in r.checks if c.name.startswith("gap_ratio")]
        assert all(c.passed for c in gap_checks)
        # smooth data: gaps finite and small, but the norm contrast is absent
        growth = [c for c in r.checks if c.name.startswith("u0_norm_growth")]
        assert growth[0].measured < 1.05


def test_no_per_sample_calls(monkeypatch):
    # the ladder's gaps take one batched call per (rung, s) from u0 and one
    # from the restart sample; recording a sample builds no CoefSeq
    calls = []

    def counting_gap(*args):
        calls.append(args)
        return smoothing_gap(*args)

    monkeypatch.setattr(fdkdv.experiments, "smoothing_gap", counting_gap)
    cfg = RunConfig(ladder_k=(8, 16, 32), s_values=(0.5, 0.9), T=0.2, h=1e-3,
                    sample_stride=10, init_sigma=1.5)
    run_smoothing_ladder(cfg)
    assert len(calls) == 3 * 2 * 2

    g = GridSpec(16)
    params = FlowParams(gamma=1.0, forcing=CoefSeq.cosine(g), h=1e-3)
    u0s = [random_rough_state(g, 2.0, seed=seed, target_l2=1.0) for seed in (1, 2)]
    built = []
    post_init = CoefSeq.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CoefSeq, "__post_init__", counting_post_init)
    counts = {}
    for every in (1, 50):
        built.clear()
        trajs = evolve_batch(u0s, 0.1, params, sample_every=every)
        assert len(trajs[0].times) == 100 // every + 1
        counts[every] = len(built)
    assert counts[1] == counts[50]


class TestKdvLimit:
    def test_conservation_default_config_short(self):
        cfg = replace(default_kdv_limit_config(), T=1.0, grid_k=64)
        r = run_kdv_limit(cfg)
        assert r.passed
        assert r.measured["max_conservation_drift"] < 1e-10

    def test_zero_data_exact(self):
        r = run_kdv_limit(RunConfig(grid_k=16, gamma=0.0, forcing_profile="zero",
                                    init_profile="zero", T=0.5, h=1e-3))
        assert r.measured["max_conservation_drift"] == 0.0

    def test_configured_damping_is_run(self):
        # the runner integrates the gamma its report records: damping shows as drift
        cfg = replace(default_kdv_limit_config(), T=1.0, grid_k=32, gamma=0.5)
        r = run_kdv_limit(cfg)
        assert not r.passed
        u0_l2 = 0.5 * np.sqrt(2.0)  # cos x
        assert r.measured["max_conservation_drift"] == pytest.approx(u0_l2 * (1 - np.exp(-0.5)))

    def test_halving_h_reduces_drift(self):
        base = RunConfig(grid_k=32, gamma=0.0, init_profile="cosine", forcing_profile="zero",
                         T=2.0)
        coarse = run_kdv_limit(replace(base, h=8e-3))
        fine = run_kdv_limit(replace(base, h=4e-3))
        assert fine.measured["max_conservation_drift"] < coarse.measured["max_conservation_drift"]


class TestAttractorProbe:
    def test_mini_ensemble_radii_agree(self):
        cfg = RunConfig(
            grid_k=32, gamma=0.5, forcing_amplitude=1.0, init_sigma=1.2,
            h=1e-3, scheme="etdrk4", T=25.0, s_values=(0.5,), sample_stride=100,
            ensemble_seeds=(11, 12, 13, 14),
        )
        r = run_attractor_probe(cfg)
        assert r.passed
        assert r.measured["radius_spread"] <= 1.10
        assert len(r.measured["late_time_radii"]) == 4

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_attractor_probe(
                replace(default_attractor_config(), ensemble_seeds=(1, 2, 3))
            )

    def test_short_horizon_rejected(self):
        r = run_attractor_probe(replace(default_attractor_config(), T=5.0))
        assert r.experiment == "attractor_probe"
        assert_horizon_failure(r, "horizon T=5.0 too short: T*gamma = 2.5 is below 10")

    def test_undamped_limit_is_a_horizon_diagnostic(self):
        cfg = replace(default_attractor_config(), gamma=0.0, forcing_profile="zero")
        assert_horizon_failure(
            run_attractor_probe(cfg), "horizon T=60.0 too short: T*gamma = 0 is below 10"
        )

    def test_unforced_ensemble_decays_to_zero_radius(self):
        cfg = RunConfig(
            grid_k=32, gamma=0.5, forcing_profile="zero", init_sigma=1.2,
            h=1e-3, scheme="etdrk4", T=25.0, s_values=(0.5,), sample_stride=200,
            ensemble_seeds=(11, 12, 13, 14),
        )
        r = run_attractor_probe(cfg)
        assert r.passed
        assert r.measured["radius_decay_factor"] < 1e-2
        assert max(r.measured["late_time_radii"].values()) < 0.05


class TestCoarsenedAttractor:
    # K = 32, gamma = 0.5, ETDRK4 at h = 1e-3, stride 100: steps of h, 2h,
    # 4h, 5h and 10h
    CFG = RunConfig(
        grid_k=32, gamma=0.5, forcing_amplitude=1.0, init_sigma=1.2,
        h=1e-3, scheme="etdrk4", T=20.0, s_values=(0.5,), sample_stride=100,
        ensemble_seeds=(11, 12, 13, 14),
    )

    def test_late_radii_match_the_fixed_step_run(self, monkeypatch):
        coarse = run_attractor_probe(self.CFG)
        monkeypatch.setattr(
            fdkdv.experiments, "evolve_batch",
            lambda *args, coarsen, **kwargs: evolve_batch(*args, coarsen=False, **kwargs),
        )
        fixed = run_attractor_probe(self.CFG)
        assert coarse.passed and fixed.passed
        got, ref = coarse.measured["late_time_radii"], fixed.measured["late_time_radii"]
        assert got.keys() == ref.keys()
        for key in ref:
            assert got[key] == pytest.approx(ref[key], rel=2e-7, abs=0.0)
        assert fixed.measured["solver_steps"] == 20000
        assert fixed.measured["step_counts"] == {1e-3: 20000}
        assert fixed.measured["max_convective_number"] is None

    def test_measured_step_bookkeeping(self):
        m = run_attractor_probe(self.CFG).measured
        counts = m["step_counts"]
        assert set(counts) == {1e-3, 2e-3, 4e-3, 5e-3, 1e-2}
        for size in counts:
            n = round(size / 1e-3)
            assert size == n * 1e-3 and 100 % n == 0
        assert m["solver_steps"] == sum(counts.values()) < 20000 / 5
        assert sum(size * n for size, n in counts.items()) == pytest.approx(self.CFG.T)
        assert 0.25 < m["max_convective_number"] <= 0.5
        # bench/workloads.key_quantities selects keys by these prefixes
        for key in ("solver_steps", "step_counts", "max_convective_number"):
            assert not key.startswith(("radius_spread", "late_time_radii", "final"))

    def test_ifrk4_keeps_its_fixed_step(self):
        cfg = RunConfig(grid_k=16, gamma=1.0, h=0.002, scheme="ifrk4", T=10.0,
                        sample_stride=500, ensemble_seeds=(11, 12, 13, 14))
        m = run_attractor_probe(cfg).measured
        assert m["step_counts"] == {0.002: 5000}
        assert m["max_convective_number"] is None

    def test_identical_cli_runs_write_identical_csvs(self, tmp_path):
        argv = ["--quiet", "--set", "T=10", "--set", "gamma=1.0", "--set", "grid.k=16",
                "--set", "h=0.002", "--set", "sample.stride=500"]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert parse_and_dispatch(["attractor", "--out", str(out), *argv]) == 0
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert len(csvs) == 4
        for name in csvs:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        report = json.loads((a / "report_attractor_probe.json").read_text())
        assert len(report["content"]["measured"]["step_counts"]) > 1  # it coarsened


class TestAttractorMemberNorms:
    # member i of M starts at ||u0|| = 0.5 * 2^(3i / (M - 1)): geometric over 0.5..4
    @staticmethod
    def start_norms(seeds):
        cfg = RunConfig(grid_k=16, gamma=1.0, h=0.002, scheme="etdrk4", T=10.0,
                        sample_stride=500, ensemble_seeds=seeds)
        r = run_attractor_probe(cfg)
        assert r.passed
        return r, [r.trajectories[f"attractor_seed{seed}"].l2_norms[0] for seed in seeds]

    def test_four_seeds_start_at_half_one_two_four(self):
        r, norms = self.start_norms((11, 12, 13, 14))
        assert list(r.measured["late_time_radii"]) == [
            "seed11_l20.5", "seed12_l21.0", "seed13_l22.0", "seed14_l24.0"
        ]
        assert norms == pytest.approx([0.5, 1.0, 2.0, 4.0], rel=1e-12)

    def test_five_seeds_span_half_to_four(self):
        r, norms = self.start_norms((21, 22, 23, 24, 25))
        targets = [float(key.split("_l2")[1]) for key in r.measured["late_time_radii"]]
        assert targets[0] == 0.5 and targets[-1] == 4.0
        assert np.diff(np.log2(targets)) == pytest.approx([0.75] * 4, rel=1e-12)
        assert norms == pytest.approx(targets, rel=1e-12)


class TestUnresolvedStep:
    @pytest.mark.xfail(raises=pytest.fail.Exception,
                       reason="nothing guards the step yet: the run exits normally "
                              "with ||u(T)|| = 0.61937 where converged runs give 0.50393")
    def test_unresolved_ifrk4_run_is_a_solver_failure(self):
        # attractor member seed 11 (sigma = 1.2, ||u0|| = 0.5) at gamma = 1:
        # ETDRK4 at h = 0.01 and IFRK4 at h = 1e-3 both end at ||u(T)|| = 0.50393
        cfg = replace(default_attractor_config(), gamma=1.0, T=10.0, scheme="ifrk4", h=0.01)
        u0 = random_rough_state(cfg.grid(), cfg.init_sigma, seed=11, target_l2=0.5)
        with pytest.raises(StepFailureError):
            evolve(u0, cfg.T, flow_params_for(cfg))


class TestAbsorbingEnsemble:
    def test_eight_seeds_all_within_prediction(self):
        # every member's measured settling time respects the envelope bound
        for seed in range(8):
            cfg = RunConfig(
                grid_k=32, T=6.0, gamma=1.0, forcing_amplitude=float(np.sqrt(2.0)),
                init_sigma=2.5, init_seed=seed, init_target_l2=3.0,
            )
            r = run_absorbing_ball(run_energy_envelope(cfg))
            assert r.passed, f"seed {seed}"


class TestAttractorGammaTrend:
    def test_doubling_gamma_shrinks_radius(self):
        # trend reported, not asserted as a theorem: stronger damping leaves
        # a smaller late-time ball for the same forcing
        radii = {}
        for gamma in (0.5, 1.0):
            cfg = RunConfig(
                grid_k=32, gamma=gamma, forcing_amplitude=1.0, init_sigma=1.2,
                h=1e-3, scheme="etdrk4", T=max(25.0, 10.0 / gamma), s_values=(0.5,),
                sample_stride=100, ensemble_seeds=(11, 12, 13, 14),
            )
            r = run_attractor_probe(cfg)
            assert r.passed
            radii[gamma] = max(r.measured["late_time_radii"].values())
        print(f"radius trend: gamma=0.5 -> {radii[0.5]:.4f}, gamma=1.0 -> {radii[1.0]:.4f}")
        assert radii[1.0] < radii[0.5]


class TestUnforcedSmoothing:
    def test_pure_decay_ladder_gap_stays_bounded(self):
        cfg = replace(
            default_smoothing_config(), s_values=(0.5,),
            forcing_profile="zero", T=2.0, h=5e-4, sample_stride=400,
        )
        r = run_smoothing_ladder(cfg)
        gap_checks = [c for c in r.checks if "gap_ratio" in c.name]
        assert all(c.passed for c in gap_checks)


class TestEnvelopeSuite:
    def test_default_suite_has_ten_mixed_configs(self):
        assert len(DEFAULT_ENVELOPE_SUITE) == 10
        gammas = {cfg.gamma for cfg in DEFAULT_ENVELOPE_SUITE}
        assert gammas == {0.5, 1.0, 2.0}

    def test_mini_suite_runs_both_checks(self, monkeypatch):
        mini = (
            RunConfig(grid_k=16, T=2.0, gamma=1.0, init_sigma=2.5),
            RunConfig(grid_k=16, T=2.0, gamma=1.0, forcing_profile="zero", init_sigma=2.5),
        )
        calls = []

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(fdkdv.experiments, "evolve", counting_evolve)
        envelopes = [run_energy_envelope(cfg) for cfg in mini]
        reports = envelopes + [run_absorbing_ball(r) for r in envelopes
                               if r.measured["forcing_l2"] > 0]
        kinds = [r.experiment for r in reports]
        assert kinds.count("energy_envelope") == 2
        assert kinds.count("absorbing_ball") == 1  # only the forced config
        assert all(r.passed for r in reports)
        # one integration per config: the absorbing ball judges the envelope run
        assert len(calls) == 2
        assert reports[2].trajectories["absorbing"] is reports[0].trajectories["trajectory"]


class TestResidualConfigs:
    def test_three_distinct(self):
        cfgs = default_residual_configs()
        assert len(cfgs) == 3
        assert len({c.hash() for c in cfgs}) == 3


class TestIdentityChecks:
    def test_reports_the_wide_integer_samples_checked(self, monkeypatch):
        # the count is what the two sampled checks return, not a literal
        monkeypatch.setattr(fdkdv.lattice, "verify_cubic_phase_sampled", lambda *a, **kw: 3)
        monkeypatch.setattr(fdkdv.lattice, "verify_quartic_phase_sampled", lambda *a, **kw: 4)
        report = run_identity_checks(RunConfig(identities_radius=10, identities_k=8))
        assert report.measured["wide_integer_samples"] == 7


def per_trial_cubic_bound(K, s_values, trials, seed):
    """cubic_bound_trials one CoefSeq at a time, as the constant estimates
    ran it before the trials were blocked: the reference it must match."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(K)
    violations, worst = 0, 0.0
    for _ in range(trials):
        sigma = rng.uniform(0.55, 2.0)
        target = rng.uniform(0.1, 4.0)
        state = random_rough_state(grid, sigma, seed=int(rng.integers(2**31)), target_l2=target)
        for s in s_values:
            ratio = sobolev_norm(resonant_cubic(state), s) / state.l2() ** 3
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations += 1
    return violations, worst


class TestCubicBoundTrials:
    @pytest.mark.parametrize("s", [0.5, 0.9])
    @pytest.mark.parametrize("trials", [1, CUBIC_TRIAL_BLOCK - 1, CUBIC_TRIAL_BLOCK + 1, 2000])
    def test_matches_the_per_trial_loop(self, trials, s):
        violations, worst = cubic_bound_trials(32, (s,), trials, seed=trials)
        want_violations, want_worst = per_trial_cubic_bound(32, (s,), trials, seed=trials)
        assert violations == want_violations
        assert abs(worst - want_worst) <= 1e-15 * want_worst

    def test_counts_violations_like_the_per_trial_loop(self):
        # the bound fails far above s = 1, so the count is nonzero here
        got = cubic_bound_trials(64, (0.5, 5.0, 6.0), 300, seed=9)
        want = per_trial_cubic_bound(64, (0.5, 5.0, 6.0), 300, seed=9)
        assert 0 < got[0] == want[0] < 600
        assert got[1] == pytest.approx(want[1], rel=1e-15)

    def test_trial_fields_are_random_rough_states(self, monkeypatch):
        fill = fdkdv.experiments.rough_spectra
        blocks = []

        def recording(K, sigmas, seeds, targets, out):
            blocks.append(fill(K, sigmas, seeds, targets, out).copy())
            return blocks[-1]

        monkeypatch.setattr(fdkdv.experiments, "rough_spectra", recording)
        cubic_bound_trials(16, (0.5,), 3, seed=21)
        rng = np.random.default_rng(21)
        for row in blocks[0]:
            sigma, target = rng.uniform(0.55, 2.0), rng.uniform(0.1, 4.0)
            state = random_rough_state(GridSpec(16), sigma, int(rng.integers(2**31)), target)
            assert row.tobytes() == state.coef.tobytes()

    def test_peak_memory_does_not_grow_with_the_trial_count(self):
        K = 64

        def peak(trials):
            tracemalloc.start()
            try:
                cubic_bound_trials(K, (0.5, 0.9), trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cubic_bound_trials(K, (0.5,), 1, seed=0)  # numpy.random imports on first use
        block_bytes = CUBIC_TRIAL_BLOCK * (K + 1) * 16
        assert abs(peak(4096) - peak(512)) < block_bytes
