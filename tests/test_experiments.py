import numpy as np
import pytest
from dataclasses import replace

import fdkdv.experiments
from fdkdv.experiments import (
    DEFAULT_ENVELOPE_SUITE,
    ConfigError,
    HorizonError,
    RunConfig,
    RunReport,
    build_field,
    default_attractor_config,
    default_kdv_limit_config,
    default_residual_configs,
    default_smoothing_config,
    envelope_suite,
    first_containment_time,
    predicted_absorption_time,
    run_absorbing_ball,
    run_attractor_probe,
    run_energy_envelope,
    run_kdv_limit,
    run_smoothing_ladder,
)
from fdkdv.flow import FlowParams, evolve
from fdkdv.spectral import CoefSeq, GridSpec


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
        with pytest.raises(HorizonError, match="horizon"):
            run_absorbing_ball(run_energy_envelope(cfg))


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
            default_smoothing_config(s_values=(0.5,)), T=2.0, h=5e-4, sample_stride=400
        )
        r = run_smoothing_ladder(cfg)
        assert r.passed
        ratios = r.measured["u0_norm_ratios_s0.5"]
        assert len(ratios) == 2
        assert all(rr > 1.25 for rr in ratios)

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
            ensemble_seeds=(11, 12, 13, 14), ensemble_target_l2=(0.5, 1.0, 2.0, 3.0),
        )
        r = run_attractor_probe(cfg)
        assert r.passed
        assert r.measured["radius_spread"] <= 1.10
        assert len(r.measured["late_time_radii"]) == 4

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_attractor_probe(
                replace(default_attractor_config(), ensemble_seeds=(1, 2, 3),
                        ensemble_target_l2=(1.0, 2.0, 3.0))
            )

    def test_duplicate_norms_rejected(self):
        with pytest.raises(ConfigError):
            run_attractor_probe(
                replace(default_attractor_config(), ensemble_target_l2=(1.0, 1.0, 2.0, 3.0))
            )

    def test_short_horizon_rejected(self):
        with pytest.raises(HorizonError):
            run_attractor_probe(replace(default_attractor_config(), T=5.0))

    def test_undamped_limit_is_a_horizon_diagnostic(self):
        cfg = replace(default_attractor_config(), gamma=0.0, forcing_profile="zero")
        with pytest.raises(HorizonError, match=r"T\*gamma = 0 is below 10"):
            run_attractor_probe(cfg)

    def test_unforced_ensemble_decays_to_zero_radius(self):
        cfg = RunConfig(
            grid_k=32, gamma=0.5, forcing_profile="zero", init_sigma=1.2,
            h=1e-3, scheme="etdrk4", T=25.0, s_values=(0.5,), sample_stride=200,
            ensemble_seeds=(11, 12, 13, 14), ensemble_target_l2=(0.5, 1.0, 2.0, 3.0),
        )
        r = run_attractor_probe(cfg)
        assert r.passed
        assert r.measured["radius_decay_factor"] < 1e-2
        assert max(r.measured["late_time_radii"].values()) < 0.05


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
                ensemble_target_l2=(0.5, 1.0, 2.0, 3.0),
            )
            r = run_attractor_probe(cfg)
            assert r.passed
            radii[gamma] = max(r.measured["late_time_radii"].values())
        print(f"radius trend: gamma=0.5 -> {radii[0.5]:.4f}, gamma=1.0 -> {radii[1.0]:.4f}")
        assert radii[1.0] < radii[0.5]


class TestUnforcedSmoothing:
    def test_pure_decay_ladder_gap_stays_bounded(self):
        cfg = replace(
            default_smoothing_config(s_values=(0.5,)),
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
        reports = envelope_suite(mini)
        kinds = [r.experiment for r in reports]
        assert kinds.count("energy_envelope") == 2
        assert kinds.count("absorbing_ball") == 1  # only the forced config
        assert all(r.passed for r in reports)
        # one integration per config: the absorbing ball judges the envelope run
        assert len(calls) == 2
        assert reports[2].trajectories["trajectory"] is reports[0].trajectories["trajectory"]


class TestResidualConfigs:
    def test_three_distinct(self):
        cfgs = default_residual_configs()
        assert len(cfgs) == 3
        assert len({c.hash() for c in cfgs}) == 3
