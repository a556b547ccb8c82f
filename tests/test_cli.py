import dataclasses
import json
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import fdkdv.cli
import fdkdv.experiments
from fdkdv.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    MissingArtifactsError,
    emit_plot_script,
    main,
    parse_and_dispatch,
    read_report_json,
    report_to_json_dict,
    write_report_json,
    write_trajectory_csv,
)
from fdkdv.experiments import (
    CONFIG_KEYS,
    RunConfig,
    run_energy_envelope,
    run_normal_form_residual,
    run_smoothing_ladder,
)
from fdkdv.flow import FlowParams, energy_envelope, evolve, evolve_batch, linear_flow
from fdkdv.spectral import CoefSeq, GridSpec, random_rough_state, sobolev_norm

SMALL = ["--set", "grid.k=16", "--set", "T=1.0", "--set", "init.sigma=2.5"]
UNFORCED = [*SMALL, "--set", "forcing.profile=zero"]  # envelope writes one report
SMALL_ATTRACTOR = ["--set", "T=10", "--set", "gamma=1.0", "--set", "grid.k=16",
                   "--set", "h=0.002", "--set", "sample.stride=500"]


# Overrides that exit 2 naming their last key, with or without --out existing;
# each holds one or more settings, the last one out of range
BAD_CONFIG_VALUES = [
    ("envelope", "gamma=0"),
    ("attractor", "gamma=0"),
    ("kdv-limit", "gamma=0 forcing.profile=cosine"),
    ("envelope", "scheme=rk4"),
    ("envelope", "grid.p=5"),
    ("envelope", "grid.p=400"),  # P follows from grid.k; there is no grid.p
    ("envelope", "h=-1"),
    ("attractor", "s.values=[]"),
    ("smoothing", "s.values=[]"),
    ("smoothing", "ladder.k=[64,64,64]"),
    ("envelope", "forcing.mode=0"),
    ("envelope", "forcing.mode=500"),
    ("envelope", "forcing.mode=-1"),
    # a gamma for which 2||f||/gamma overflows
    ("envelope", "grid.k=16 T=1 forcing.profile=cosine gamma=1e-320"),
    ("smoothing", "forcing.profile=cosine gamma=1e-320"),
    ("kdv-limit", "forcing.profile=cosine gamma=1e-320"),
    ("kdv-limit", "init.mode=500"),
    # an s whose H^s weight K^(2s) overflows at the run's largest K
    ("envelope", "T=5 grid.k=16 s.values=[130]"),
    ("kdv-limit", "T=1 grid.k=16 s.values=[130]"),
    ("smoothing", "T=0.1 ladder.k=[8,16,32] s.values=[200]"),
    ("smoothing", "T=0.1 ladder.k=[8,16,512] s.values=[0.5,57]"),
    ("attractor", "T=10 gamma=1.0 grid.k=16 s.values=[130]"),
    ("estimate-constants", "s.values=[0.5,1.0]"),
    # A4's restart, A9's window and A9's member norms are fixed, not keys
    ("smoothing", "restart.fraction=2"),
    ("smoothing", "restart.fraction=-3"),
    ("smoothing", "restart.fraction=0.5"),
    ("attractor", "attractor.window=-1"),
    ("attractor", "attractor.window=1.5"),
    ("attractor", "attractor.window=0.25"),
    ("attractor", "ensemble.target_l2=[0.5,1,2,4]"),
    ("attractor", "ensemble.target_l2=[1,1,2,3]"),
    ("envelope", "init.sigma=0.3"),
    ("envelope", "init.target_l2=-1"),
    ("envelope", "forcing.profile=random forcing.sigma=0.4"),
    ("attractor", "T=10 gamma=1.0 grid.k=16 ensemble.target_l2=[0.5,1,2,-4]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.eps=[0.5]"),
    ("estimate-constants", "rho.trials=1 constants.k=[0,8,16]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.eps=[]"),
    ("estimate-constants", "constants.trials=1 rho.trials=0"),
    ("estimate-constants", "constants.trials=1 rho.trials=-3"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.k=[8]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.k=[8,8]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.k=[8,8,16]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.k=[1,2]"),
    # the smoothing ladder's ratio verdicts divide by u0's H^s norms and by the
    # middle rung's gap sups: 0 for zero data, and underflowing for tiny data
    ("smoothing", "T=0.5 ladder.k=[16,32,64] sample.stride=200 forcing.profile=zero "
                  "init.profile=zero"),
    ("smoothing", "init.amplitude=0 init.profile=cosine"),
    ("smoothing", "T=0.2 ladder.k=[2,4,8] sample.stride=20 init.target_l2=2.2e-313"),
    ("smoothing", "T=0.2 ladder.k=[2,4,8] sample.stride=20 forcing.profile=zero "
                  "init.target_l2=1e-200"),
    ("smoothing", "T=0.2 ladder.k=[2,4,8] sample.stride=20 forcing.profile=zero "
                  "init.target_l2=1e-150"),
    ("verify-identities", "identities.radius=200000"),
    ("verify-identities", "identities.radius=10 identities.k=0"),
    ("verify-identities", "identities.radius=10 identities.k=8 nf.dt=-1e-5"),
    # the residual stencil's approach to nf.time is too many steps to allocate
    ("verify-identities", "identities.radius=20 nf.time=1e300"),
    # a value of the wrong type is named like one out of range
    ("kdv-limit", "grid.k=1.5"),
    ("envelope", "T=true"),
    ("verify-identities", "identities.radius=2.5"),
    ("estimate-constants", "constants.k=[8,16.5]"),
    ("envelope", "s.values=0.5"),
    # a repeated value would repeat a CSV column or a verdict
    ("envelope", "s.values=[0.5,0.5]"),
    ("envelope", "s.values=[0.5,0.5000001]"),  # both name the column hs_gap_s0.5
    ("smoothing", "s.values=[0.5,0.9,0.5]"),
    ("estimate-constants", "rho.trials=1 constants.trials=1 constants.eps=[0.01,0.01]"),
    ("verify-identities", "nf.time=null"),
    ("attractor", "ensemble.seeds=[1,2,3]"),
    # numpy's generators take no negative seed
    ("envelope", "init.seed=-1"),
    ("envelope", "forcing.profile=random forcing.seed=-3"),
    ("attractor", "ensemble.seeds=[1,2,3,-4]"),
    ("estimate-constants", "init.seed=-2"),
    ("verify-identities", "init.seed=-5"),
    ("smoothing", "ladder.k=[16,32]"),
    # JSON reads Infinity and NaN, and no float key takes them
    ("kdv-limit", "grid.k=16 T=1 h=Infinity"),
    ("kdv-limit", "T=Infinity"),
    ("verify-identities", "nf.time=Infinity"),
    ("envelope", "grid.k=16 T=1 forcing.amplitude=NaN"),
    ("smoothing", "s.values=[0.5,-Infinity]"),
    # more steps of h to T than fit in memory: refused before the run steps
    ("kdv-limit", "grid.k=16 T=10 h=1e-15"),
    ("envelope", "grid.k=16 T=1e300"),
    # a key the command does not read
    ("attractor", "init.target_l2=100"),
    ("attractor", "--seed=5"),
    ("verify-identities", "grid.k=16"),
    ("estimate-constants", "T=1"),
]


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


def as_argv(override):
    """--set for each key=value, and a --flag=value token as that flag."""
    argv = []
    for text in override.split():
        argv += text.split("=", 1) if text.startswith("--") else ["--set", text]
    return argv


def named_key(override):
    """The config key of an override's last token (init.seed for --seed)."""
    key = override.split()[-1].split("=")[0]
    return "init.seed" if key == "--seed" else key


class TestDispatch:
    def test_unforced_envelope_small_run(self, tmp_path):
        code = run_cli("envelope", "--out", str(tmp_path), "--quiet", *UNFORCED)
        assert code == EXIT_OK
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report_energy_envelope.json").exists()
        assert (tmp_path / "plots.gp").exists()

    def test_default_output_root(self, tmp_path, monkeypatch):
        # without --out, a run writes to one stamped directory under the root
        monkeypatch.setenv("FDKDV_OUT_ROOT", str(tmp_path / "runs"))
        assert run_cli("envelope", "--quiet", *UNFORCED) == EXIT_OK
        (stamped,) = (tmp_path / "runs").iterdir()
        assert sorted(p.name for p in stamped.iterdir()) == [
            "plots.gp", "report_energy_envelope.json", "trajectory.csv"
        ]
        # and a run that exits 2 makes none
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("FDKDV_OUT_ROOT", str(tmp_path / "empty"))
        assert run_cli("envelope", "--quiet", "--set", "h=-1") == EXIT_CONFIG
        assert list((tmp_path / "empty").iterdir()) == []

    def test_runs_in_one_second_get_their_own_directories(self, tmp_path, monkeypatch, capsys):
        # the default directory is stamped to the second; a second run with the
        # same stamp must not write into the first one's directory
        monkeypatch.setenv("FDKDV_OUT_ROOT", str(tmp_path / "runs"))
        monkeypatch.setattr(fdkdv.cli, "time", SimpleNamespace(strftime=lambda fmt: "20260101-000000"))
        assert run_cli("envelope", *UNFORCED) == EXIT_OK
        assert run_cli("kdv-limit", "--set", "grid.k=16", "--set", "T=0.1") == EXIT_OK
        first, second = (tmp_path / "runs" / name for name in ("20260101-000000", "20260101-000000-2"))
        assert sorted((tmp_path / "runs").iterdir()) == [first, second]
        assert sorted(p.name for p in first.iterdir()) == [
            "plots.gp", "report_energy_envelope.json", "trajectory.csv"
        ]
        assert "report_kdv_limit.json" in [p.name for p in second.iterdir()]
        out = capsys.readouterr().out
        assert f"artifacts in {first}\n" in out and f"artifacts in {second}\n" in out

    @pytest.mark.parametrize("argv", [
        ["envelope", "--quiet", *SMALL],
        ["envelope", "--quiet", "--set", "h=-1"],
    ], ids=["pass", "config-error"])
    def test_main_exits_with_the_dispatch_code(self, tmp_path, monkeypatch, argv):
        argv = [*argv, "--out", str(tmp_path / "run")]
        monkeypatch.setattr(sys, "argv", ["fdkdv", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == run_cli(*argv)

    def test_missing_subcommand_is_config_error(self):
        assert run_cli() == EXIT_CONFIG

    def test_unknown_subcommand_is_config_error(self):
        assert run_cli("frobnicate") == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = run_cli("envelope", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, content, below", [
        ("--config", None, ""),  # a directory
        ("--config", b'{"T": "\xff"}', ""),  # not UTF-8
        ("--out", b"", ""),  # an existing file
        ("--out", b"", "sub"),  # under a file
    ], ids=["config-dir", "config-not-utf8", "out-is-file", "out-under-file"])
    def test_unusable_path_exits_config(self, tmp_path, capsys, monkeypatch, flag, content, below):
        made = tmp_path / "x"
        if content is None:
            made.mkdir()
        else:
            made.write_bytes(content)
        path = made / below if below else made
        ran = []
        monkeypatch.setattr(fdkdv.cli, "run_energy_envelope", lambda cfg: ran.append(cfg))
        other = ["--out", str(tmp_path / "out")] if flag == "--config" else []
        code = run_cli("envelope", flag, str(path), *other, "--quiet")
        assert code == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        assert ran == []  # the error comes before anything runs

    def test_malformed_config_diagnoses_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid.k": 16,\n "T": }\n')
        code = run_cli("envelope", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_key_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid.N": 16}')
        code = run_cli("envelope", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "grid.N" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv, key", [
        ("attractor", ["--seed", "99", "--set", "init.target_l2=100"], "init.target_l2"),
        ("attractor", ["--config", "{cfg}"], "ladder.k"),
        ("smoothing", ["--set", "grid.k=16"], "grid.k"),
        ("verify-identities", ["--set", "gamma=3.0"], "gamma"),
    ])
    def test_unread_key_names_key_and_command(self, tmp_path, capsys, command, argv, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"T": 10, key: [1, 2, 3]}))
        argv = [arg.format(cfg=cfgfile) for arg in argv]
        out = tmp_path / "run"
        assert run_cli(command, "--out", str(out), "--quiet", *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{command} reads no key {key!r}" in err
        assert not out.exists()

    def test_override_precedence(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"grid.k": 16, "T": 1.0, "gamma": 1.0, "init.sigma": 2.5,
                                       "forcing.profile": "zero"}))
        out = tmp_path / "out"
        code = run_cli(
            "envelope", "--config", str(cfgfile), "--out", str(out),
            "--set", "gamma=2.0", "--quiet",
        )
        assert code == EXIT_OK
        report = read_report_json(out / "report_energy_envelope.json")
        assert report["content"]["config"]["gamma"] == 2.0

    def test_seed_flag_overrides_init_seed(self, tmp_path):
        code = run_cli("envelope", "--out", str(tmp_path), "--seed", "99", "--quiet", *UNFORCED)
        assert code == EXIT_OK
        report = read_report_json(tmp_path / "report_energy_envelope.json")
        assert report["content"]["config"]["init.seed"] == 99

    def test_envelope_short_horizon_exits_one_with_diagnostic(self, tmp_path, capsys):
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=16", "--set", "T=0.01",
            "--set", "init.target_l2=4.0", "--set", "init.sigma=2.5",
        )
        assert code == EXIT_ASSERTION
        assert capsys.readouterr().err == (
            "horizon diagnostic: horizon T=0.01 too short: trajectory has not settled "
            "under 2||f||/gamma = 1.41421\n"
        )
        # the report is still written, carrying the failed verdict
        report = read_report_json(tmp_path / "report_absorbing_ball.json")
        assert report["content"]["passed"] is False
        assert [v["name"] for v in report["content"]["verdicts"]] == ["horizon_sufficient"]
        # and the trajectory it judged is there, as on a pass
        absorbing = (tmp_path / "absorbing.csv").read_bytes()
        assert absorbing == (tmp_path / "trajectory.csv").read_bytes()

    def test_kdv_limit_small(self, tmp_path):
        code = run_cli(
            "kdv-limit", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=32", "--set", "T=1.0",
        )
        assert code == EXIT_OK
        report = read_report_json(tmp_path / "report_kdv_limit.json")
        assert report["content"]["passed"] is True
        # the report records the gamma the run used
        assert report["content"]["config"]["gamma"] == 0
        # gamma = f = 0: the envelope is the conserved norm ||u0|| on every row
        rows = [line.split(",") for line in
                (tmp_path / "trajectory.csv").read_text().strip().split("\n")[1:]]
        assert len(rows) > 1
        assert all(row[2] == rows[0][1] for row in rows)

    def test_kdv_limit_runs_the_configured_gamma(self, tmp_path):
        code = run_cli(
            "kdv-limit", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=32", "--set", "T=1.0", "--set", "gamma=0.5",
        )
        assert code == EXIT_ASSERTION  # damping is no conservation
        content = read_report_json(tmp_path / "report_kdv_limit.json")["content"]
        assert content["config"]["gamma"] == 0.5
        assert [v["passed"] for v in content["verdicts"]] == [False]

    def test_envelope_in_the_undamped_unforced_limit(self, tmp_path):
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet", *SMALL,
            "--set", "gamma=0", "--set", "forcing.profile=zero",
        )
        assert code == EXIT_OK
        # no forcing, no absorbing ball
        assert not (tmp_path / "report_absorbing_ball.json").exists()

    def test_envelope_writes_both_reports(self, tmp_path):
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=16", "--set", "T=2.0", "--set", "init.sigma=2.5",
        )
        assert code == EXIT_OK
        assert (tmp_path / "report_energy_envelope.json").exists()
        assert (tmp_path / "report_absorbing_ball.json").exists()

    def test_envelope_integrates_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_evolve(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(fdkdv.experiments, "evolve", counting_evolve)
        written = []
        write_csv = fdkdv.cli.write_trajectory_csv

        def counting_write(traj, path, *args, **kwargs):
            written.append(Path(path).name)
            return write_csv(traj, path, *args, **kwargs)

        monkeypatch.setattr(fdkdv.cli, "write_trajectory_csv", counting_write)
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=16", "--set", "T=1.0",
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        # absorbing.csv is a byte copy, not a second rendering
        assert written == ["trajectory.csv"]
        # the absorbing-ball verdict reads the envelope run's trajectory
        absorbing = (tmp_path / "absorbing.csv").read_bytes()
        assert absorbing == (tmp_path / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("command, override", BAD_CONFIG_VALUES)
    def test_bad_config_value_exits_config(self, tmp_path, capsys, command, override):
        code = run_cli(command, "--out", str(tmp_path), "--quiet", *as_argv(override))
        assert code == EXIT_CONFIG
        assert named_key(override) in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", BAD_CONFIG_VALUES)
    def test_config_error_makes_no_output_directory(self, tmp_path, command, override):
        out = tmp_path / "run"
        assert run_cli(command, "--out", str(out), "--quiet", *as_argv(override)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command, override, K", [
        ("smoothing", "T=0.1 ladder.k=[8,16,512] s.values=[0.5,57]", 512),
        ("envelope", "T=5 grid.k=16 s.values=[130]", 16),
    ])
    def test_overflowing_sobolev_weight_names_the_largest_k(
            self, tmp_path, capsys, monkeypatch, command, override, K):
        # 57 overflows 512^(2s) but not 16^(2s): the largest K decides, and
        # the run stops before it steps
        def no_stepping(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(fdkdv.experiments, "evolve", no_stepping)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, "--out", str(tmp_path / "run"), *as_argv(override))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "s.values" in err and f"at K = {K}" in err
        assert not (tmp_path / "run").exists()

    def test_solver_failure_prints_only_the_solver_line(self, tmp_path, capsys):
        # the blow-up's overflow raises no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("envelope", "--out", str(tmp_path / "run"), "--quiet",
                           "--set", "grid.k=64", "--set", "T=5.0", "--set", "h=0.05")
        assert code == 3
        assert capsys.readouterr().err == (
            "solver failure: non-finite state at t = 0.3; reduce the step size\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=16", "--set", "T=5.0", "--set", "h=0.5",
            "--set", "init.profile=cosine", "--set", "init.amplitude=1000.0",
            "--set", "forcing.profile=zero",
        )
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_attractor_solver_failure_names_time_and_seed(self, tmp_path, capsys):
        # h = 0.01 is far past IFRK4's saturation limit on the sigma = 1.2
        # members; the largest one (seed 14, l2 = 4) fails first
        code = run_cli(
            "attractor", "--out", str(tmp_path), "--quiet",
            "--set", "T=10", "--set", "gamma=1.0", "--set", "scheme=ifrk4", "--set", "h=0.01",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure" in err and "seed=14" in err
        assert re.search(r"at t = \d", err)

    def test_verify_identities_smoke(self, tmp_path):
        code = run_cli(
            "verify-identities", "--out", str(tmp_path), "--quiet",
            "--set", "identities.radius=60", "--set", "identities.k=16",
            "--set", "nf.time=0.1",
        )
        assert code == EXIT_OK
        assert (tmp_path / "report_identity_checks.json").exists()
        for i in (1, 2, 3):
            assert (tmp_path / f"report_normal_form_residual_{i}.json").exists()

    def test_verify_identities_nf_time_off_the_dt_lattice(self, tmp_path):
        # (nf.time - nf.dt)/nf.dt = 1665.67 once made the residual runs exit 2,
        # after the identity report had been written
        code = run_cli(
            "verify-identities", "--out", str(tmp_path), "--quiet",
            "--set", "nf.time=0.05", "--set", "nf.dt=3e-5",
            "--set", "identities.radius=10", "--set", "identities.k=8",
        )
        assert code == EXIT_OK
        labels = ["identity_checks"] + [f"normal_form_residual_{i}" for i in (1, 2, 3)]
        for label in labels:
            assert read_report_json(tmp_path / f"report_{label}.json")["content"]["passed"]

    @pytest.mark.parametrize("override, expected", [
        # nf.time equal to its default was ignored: configs 2-3 kept 0.3/0.4
        ("nf.time=0.5", [(0.5, 2e-5)] * 3),
        # nf.dt alone moved configs 2-3 to the default nf.time 0.5
        ("nf.dt=0.01", [(0.5, 0.01), (0.3, 0.01), (0.4, 0.01)]),
    ])
    def test_verify_identities_applies_exactly_the_given_nf_keys(
        self, tmp_path, monkeypatch, override, expected
    ):
        # the residual runs themselves are not needed: record their configs
        monkeypatch.setattr(
            fdkdv.cli, "run_normal_form_residual",
            lambda cfg: fdkdv.experiments.RunReport("normal_form_residual", cfg),
        )
        code = run_cli(
            "verify-identities", "--out", str(tmp_path), "--quiet",
            "--set", "identities.radius=10", "--set", "identities.k=8",
            "--set", override,
        )
        assert code == EXIT_ASSERTION  # the stand-in reports carry no verdicts
        for i, (nf_time, nf_dt) in enumerate(expected, start=1):
            config = read_report_json(tmp_path / f"report_normal_form_residual_{i}.json")[
                "content"]["config"]
            assert (config["nf.time"], config["nf.dt"]) == (nf_time, nf_dt)

    @pytest.mark.parametrize("argv, runners", [
        (["envelope", *UNFORCED], ["run_energy_envelope"]),
        (["envelope", *SMALL], ["run_energy_envelope", "run_absorbing_ball"]),
        (["attractor", *SMALL_ATTRACTOR], ["run_attractor_probe"]),
    ])
    def test_commands_call_runners_through_cli_names(self, tmp_path, monkeypatch, argv, runners):
        # bench/tracing.py times the experiments by patching these names
        called = []
        for name in runners:
            def recording(*args, _name=name, _run=getattr(fdkdv.cli, name)):
                called.append(_name)
                return _run(*args)
            monkeypatch.setattr(fdkdv.cli, name, recording)
        code = run_cli(argv[0], "--out", str(tmp_path), "--quiet", *argv[1:])
        assert code == EXIT_OK
        assert called == runners

    def test_estimate_constants_smoke(self, tmp_path):
        code = run_cli(
            "estimate-constants", "--out", str(tmp_path), "--quiet",
            "--set", "constants.k=[8,16]", "--set", "constants.trials=10",
            "--set", "rho.trials=20", "--set", "s.values=[0.5]",
            "--set", "constants.eps=[0.01]",
        )
        assert code == EXIT_OK
        report = read_report_json(tmp_path / "report_constant_estimates.json")
        assert report["content"]["passed"] is True

    def test_determinism_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("envelope", "--out", str(out), "--quiet", *SMALL) == EXIT_OK
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        ra = read_report_json(a / "report_energy_envelope.json")
        rb = read_report_json(b / "report_energy_envelope.json")
        assert ra["content"] == rb["content"]  # meta carries wall time only

    def test_tiny_gamma_envelope_keeps_its_forcing_growth(self, tmp_path, capsys):
        # at gamma * t ~ 1e-300 the envelope is ||u0|| + ||f|| t; computing
        # 1 - e^{-gamma t} by subtraction once cancelled it to ||u0|| and
        # failed the run with envelope_violation = 0.301
        code = run_cli("envelope", "--out", str(tmp_path), "--quiet",
                       "--set", "gamma=1e-300", "--set", "grid.k=16", "--set", "T=1")
        assert code == EXIT_OK, capsys.readouterr().err
        report = read_report_json(tmp_path / "report_energy_envelope.json")
        assert report["content"]["measured"]["max_envelope_violation"] < 1e-12


# One small run per command, reaching every key the command accepts
READ_RUNS = {
    "envelope": SMALL,
    "kdv-limit": ["--set", "grid.k=16", "--set", "T=0.1"],
    "smoothing": ["--set", "ladder.k=[4,8,16]", "--set", "T=0.2", "--set", "sample.stride=20",
                  "--set", "h=0"],  # the default step must come from each rung's K
    "attractor": SMALL_ATTRACTOR,
    "estimate-constants": ["--set", "constants.k=[8,16]", "--set", "constants.trials=2",
                           "--set", "rho.trials=2", "--set", "s.values=[0.5]"],
    "verify-identities": ["--set", "identities.radius=10", "--set", "identities.k=8",
                          "--set", "nf.time=0.05", "--set", "nf.dt=3e-5"],
}


def record_reads(monkeypatch, configs) -> set:
    """The dotted keys of the fields read on the RunConfig objects in configs
    from now on, leaving out reads made by __post_init__, to_mapping and hash
    (validation and the report's config section read every key)."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    reads = set()

    def recording(cfg, name):
        if name in names and any(cfg is c for c in configs):
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name not in ("__post_init__", "to_mapping", "hash"):
                frame = frame.f_back
            if frame is None:
                reads.add(name.replace("_", ".", 1))
        return object.__getattribute__(cfg, name)

    monkeypatch.setattr(RunConfig, "__getattribute__", recording)
    return reads


class TestConfigKeys:
    @pytest.mark.parametrize("command", sorted(READ_RUNS))
    def test_command_accepts_the_keys_its_run_reads(self, tmp_path, monkeypatch, command):
        assert set(READ_RUNS) == set(fdkdv.cli.COMMANDS)
        default, run, keys = fdkdv.cli.COMMANDS[command]
        configs = []
        monkeypatch.setitem(fdkdv.cli.COMMANDS, command, (
            default, lambda cfg, overrides: configs.append(cfg) or run(cfg, overrides), keys))
        reads = record_reads(monkeypatch, configs)
        code = run_cli(command, "--out", str(tmp_path), "--quiet", *READ_RUNS[command])
        assert code in (EXIT_OK, EXIT_ASSERTION)
        assert len(configs) == 1
        assert reads == set(keys)
        # every report records and hashes exactly its experiment's keys
        for path in tmp_path.glob("report_*.json"):
            content = read_report_json(path)["content"]
            assert list(content["config"]) == sorted(CONFIG_KEYS[content["experiment"]])
            assert content["config_hash"] == RunConfig.from_mapping(content["config"]).hash(
                CONFIG_KEYS[content["experiment"]])

    def test_residual_records_the_keys_it_reads(self, monkeypatch):
        # verify-identities runs it on fixed configs, so no command's run pins it
        cfg = RunConfig(grid_k=8, nf_time=0.01, nf_dt=1e-3)
        reads = record_reads(monkeypatch, [cfg])
        run_normal_form_residual(cfg)
        assert reads == set(CONFIG_KEYS["normal_form_residual"])

    def test_readme_table_lists_each_commands_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        known = RunConfig().to_mapping()

        def expand(entry):  # forcing.* -> the six forcing keys
            return [k for k in known if k.startswith(entry[:-1])] if entry.endswith(".*") else [entry]

        listed = {}
        for line in readme.splitlines():
            if line.startswith("| `"):
                commands, keys, count = line.strip("|").split("|")
                expanded = {k for entry in re.findall(r"`([^`]+)`", keys) for k in expand(entry)}
                for command in re.findall(r"`([^`]+)`", commands):
                    listed[command] = (expanded, int(count))
        assert listed == {name: (set(keys), len(keys))
                          for name, (_, _, keys) in fdkdv.cli.COMMANDS.items()}


class TestTrajectoryCsv:
    def _traj(self, n=3):
        g = GridSpec(8)
        params = FlowParams(gamma=1.0, forcing=CoefSeq.cosine(g), h=0.01)
        return evolve(CoefSeq.cosine(g), n * 0.01, params, sample_every=1)

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self._traj(3), path, s_values=(0.5,))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,l2_norm,envelope,hs_gap_s0.5,hs_norm_s0.5"
        assert len(lines) == 1 + 4  # header + samples at 0, h, 2h, 3h

    def test_multiple_s_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self._traj(2), path, s_values=(0.5, 0.9))
        header = path.read_text().split("\n")[0]
        assert header == (
            "t,l2_norm,envelope,hs_gap_s0.5,hs_norm_s0.5,hs_gap_s0.9,hs_norm_s0.9"
        )

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self._traj(2), path)
        row = path.read_text().strip().split("\n")[2].split(",")
        value = row[1]
        digits = re.sub(r"[-+.e]", "", value).lstrip("0")
        assert len(digits) >= 16  # 17 significant digits requested
        assert float(value) > 0

    def test_gap_column_zero_at_t0(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(self._traj(2), path)
        first = path.read_text().strip().split("\n")[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.0

    @staticmethod
    def per_row_csv(traj, s_values) -> str:
        """The CSV written one sample at a time: a CoefSeq per row, its
        l2 norm, and its gap and H^s norm per s."""
        g = GridSpec(traj.coefs.shape[1] - 1)
        states = [CoefSeq(g, c) for c in traj.coefs]
        norms = [u.l2() for u in states]
        envelope = energy_envelope(traj.times, norms[0], traj.forcing_l2, traj.gamma)
        header = ["t", "l2_norm", "envelope"]
        for s in s_values:
            header += [f"hs_gap_s{s:g}", f"hs_norm_s{s:g}"]
        lines = [",".join(header)]
        for t, u, norm, env in zip(traj.times, states, norms, envelope):
            row = [t, norm, env]
            for s in s_values:
                lin = linear_flow(states[0], float(t), traj.gamma)
                row += [sobolev_norm(u.with_coef(u.coef - lin.coef), s), sobolev_norm(u, s)]
            lines.append(",".join(format(float(x), ".17g") for x in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def oracle_cases():
        g = GridSpec(32)
        f = CoefSeq.cosine(g)
        u0 = random_rough_state(g, 1.5, seed=4, target_l2=1.0)
        ifrk4 = evolve(u0, 0.3, FlowParams(gamma=0.5, forcing=f, h=1e-3), sample_every=20)
        members = [random_rough_state(g, 1.2, seed=s, target_l2=l2)
                   for s, l2 in ((1, 0.5), (2, 2.0))]
        coarse = evolve_batch(members, 0.4, FlowParams(gamma=1.0, forcing=f, h=1e-3,
                                                        scheme="etdrk4"),
                              sample_every=16, coarsen=True)[1]
        assert len(coarse.step_counts) > 1  # the member took coarsened steps
        cfg = RunConfig(ladder_k=(8, 16, 32), s_values=(0.5, 0.9), T=0.3, h=1e-3,
                        scheme="etdrk4", sample_stride=25, init_sigma=0.55)
        rung = run_smoothing_ladder(cfg).trajectories["smoothing_K32"]
        return [(ifrk4, (0.5, 2.0)), (coarse, (0.5,)), (rung, cfg.s_values)]

    def test_bytes_equal_per_row_writer(self, tmp_path):
        for i, (traj, s_values) in enumerate(self.oracle_cases()):
            path = tmp_path / f"t{i}.csv"
            write_trajectory_csv(traj, path, s_values=s_values)
            assert path.read_text() == self.per_row_csv(traj, s_values)


class TestReportJson:
    def test_round_trip(self, tmp_path):
        report = run_energy_envelope(RunConfig(grid_k=16, T=1.0))
        path = tmp_path / "r.json"
        write_report_json(report, path)
        loaded = read_report_json(path)
        assert loaded["content"] == report.content_dict()
        assert loaded == report_to_json_dict(report) | {
            "meta": {"wall_time_s": loaded["meta"]["wall_time_s"]}
        }

    def test_content_carries_hash_verdicts_tolerances(self, tmp_path):
        report = run_energy_envelope(RunConfig(grid_k=16, T=1.0))
        content = report.content_dict()
        keys = CONFIG_KEYS["energy_envelope"]
        assert set(content["config"]) == set(keys)
        assert content["config_hash"] == report.config.hash(keys) != report.config.hash()
        assert content["verdicts"][0].keys() == {"name", "passed", "measured", "tolerance"}
        assert "fdkdv" in content["versions"]


class TestPlotScript:
    @staticmethod
    def _write_csvs(directory, stems):
        """Write a small trajectory CSV per stem; return the file names, as the
        writer passes them to emit_plot_script."""
        traj = TestTrajectoryCsv()._traj(2)
        for stem in stems:
            write_trajectory_csv(traj, directory / f"{stem}.csv")
        return [f"{stem}.csv" for stem in stems]

    def test_empty_directory_names_expected_files(self, tmp_path):
        with pytest.raises(MissingArtifactsError, match="trajectory.csv"):
            emit_plot_script(tmp_path, [])

    def test_envelope_block(self, tmp_path):
        names = self._write_csvs(tmp_path, ["trajectory"])
        script = emit_plot_script(tmp_path, names).read_text()
        assert "envelope.svg" in script
        assert "'trajectory.csv'" in script  # relative reference

    def test_smoothing_block_one_curve_per_rung(self, tmp_path):
        names = self._write_csvs(tmp_path, [f"smoothing_K{K}" for K in (16, 32, 64)])
        script = emit_plot_script(tmp_path, names).read_text()
        assert script.count("smoothing_K") == 3

    def test_reused_out_plots_only_this_runs_csvs(self, tmp_path):
        assert run_cli("envelope", "--out", str(tmp_path), "--quiet", *SMALL) == EXIT_OK
        assert run_cli("attractor", "--out", str(tmp_path), "--quiet", *SMALL_ATTRACTOR) == EXIT_OK
        script = (tmp_path / "plots.gp").read_text()
        assert (tmp_path / "trajectory.csv").exists()  # the first run's, left in place
        assert "trajectory.csv" not in script
        assert "attractor_seed" in script

    def test_script_text_is_pinned(self, tmp_path):
        names = self._write_csvs(tmp_path, ["trajectory", "smoothing_K16", "smoothing_K32",
                                            "attractor_seed11", "attractor_seed12"])
        assert emit_plot_script(tmp_path, names).read_text() == (
            "# generated plotting script; run with: gnuplot plots.gp\n"
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set terminal svg size 900,600\n"
            "\n"
            "set output 'envelope.svg'\n"
            "set title 'l2 norm vs closed-form envelope'\n"
            "set xlabel 't'\n"
            "plot 'trajectory.csv' using 1:2 with lines title 'l2 norm', \\\n"
            "     'trajectory.csv' using 1:3 with lines title 'envelope'\n"
            "\n"
            "set output 'smoothing_gaps.svg'\n"
            "set title 'nonlinear remainder H^s gap across truncations'\n"
            "set xlabel 't'\n"
            "plot 'smoothing_K16.csv' using 1:4 with lines title 'K16', \\\n"
            "     'smoothing_K32.csv' using 1:4 with lines title 'K32'\n"
            "\n"
            "set output 'attractor_radii.svg'\n"
            "set title 'late-time H^s radius per ensemble member'\n"
            "set xlabel 't'\n"
            "plot 'attractor_seed11.csv' using 1:5 with lines title 'seed11', \\\n"
            "     'attractor_seed12.csv' using 1:5 with lines title 'seed12'\n"
        )

    def test_script_consumes_csvs_without_edits(self, tmp_path):
        """Structural smoke: every CSV the script references exists, and the
        column indices it plots are inside each CSV's header."""
        names = self._write_csvs(tmp_path, ["trajectory", "attractor_seed11", "attractor_seed12"])
        script = emit_plot_script(tmp_path, names).read_text()
        for fname, col1, col2 in re.findall(r"'([\w.]+\.csv)' using (\d+):(\d+)", script):
            csv = tmp_path / fname
            assert csv.exists()
            header = csv.read_text().split("\n")[0].split(",")
            rows = csv.read_text().strip().split("\n")[1:]
            assert int(col1) <= len(header) and int(col2) <= len(header)
            for row in rows:
                fields = row.split(",")
                float(fields[int(col1) - 1]); float(fields[int(col2) - 1])
