import json
import re
import warnings
from pathlib import Path

import pytest

import fdkdv.cli
import fdkdv.experiments
from fdkdv.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    MissingArtifactsError,
    emit_plot_script,
    parse_and_dispatch,
    read_report_json,
    report_to_json_dict,
    write_report_json,
    write_trajectory_csv,
)
from fdkdv.experiments import RunConfig, run_energy_envelope
from fdkdv.flow import FlowParams, evolve
from fdkdv.spectral import CoefSeq, GridSpec

SMALL = ["--set", "grid.k=16", "--set", "T=1.0", "--set", "init.sigma=2.5"]


def run_cli(*argv):
    return parse_and_dispatch(list(argv))


class TestDispatch:
    def test_simulate_small_run(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path), "--quiet", *SMALL)
        assert code == EXIT_OK
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report_energy_envelope.json").exists()
        assert (tmp_path / "plots.gp").exists()

    def test_missing_subcommand_is_config_error(self):
        assert run_cli() == EXIT_CONFIG

    def test_unknown_subcommand_is_config_error(self):
        assert run_cli("frobnicate") == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
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
        code = run_cli("simulate", flag, str(path), *other, "--quiet")
        assert code == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
        assert ran == []  # the error comes before anything runs

    def test_malformed_config_diagnoses_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid.k": 16,\n "T": }\n')
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_key_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid.N": 16}')
        code = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "grid.N" in capsys.readouterr().err

    def test_override_precedence(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"grid.k": 16, "T": 1.0, "gamma": 1.0, "init.sigma": 2.5}))
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--config", str(cfgfile), "--out", str(out),
            "--set", "gamma=2.0", "--quiet",
        )
        assert code == EXIT_OK
        report = read_report_json(out / "report_energy_envelope.json")
        assert report["content"]["config"]["gamma"] == 2.0

    def test_seed_flag_overrides_init_seed(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path), "--seed", "99", "--quiet", *SMALL)
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
        assert "horizon" in capsys.readouterr().err
        # the report is still written, carrying the failed verdict
        report = read_report_json(tmp_path / "report_absorbing_ball.json")
        assert report["content"]["passed"] is False

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

    @pytest.mark.parametrize("command, override", [
        ("envelope", "gamma=0"),
        ("attractor", "gamma=0"),
        ("kdv-limit", "gamma=0 forcing.profile=cosine"),
        ("simulate", "scheme=rk4"),
        ("simulate", "grid.p=5"),
        ("simulate", "grid.p=400"),  # P follows from grid.k; there is no grid.p
        ("simulate", "h=-1"),
        ("attractor", "s.values=[]"),
        ("smoothing", "s.values=[]"),
        ("smoothing", "ladder.k=[64,64,64]"),
        ("envelope", "forcing.mode=0"),
        ("envelope", "forcing.mode=500"),
        ("simulate", "forcing.mode=-1"),
        ("kdv-limit", "init.mode=500"),
        ("estimate-constants", "s.values=[0.5,1.0]"),
        ("smoothing", "restart.fraction=2"),
        ("smoothing", "restart.fraction=-3"),
        ("attractor", "attractor.window=-1"),
        ("attractor", "attractor.window=1.5"),
        ("simulate", "init.sigma=0.3"),
        ("simulate", "init.target_l2=-1"),
        ("simulate", "forcing.profile=random forcing.sigma=0.4"),
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
        # the smoothing ladder's ratio verdicts divide by u0's H^s norms
        ("smoothing", "T=0.5 ladder.k=[16,32,64] sample.stride=200 forcing.profile=zero "
                      "init.profile=zero"),
        ("smoothing", "init.amplitude=0 init.profile=cosine"),
        ("verify-identities", "identities.radius=200000"),
        ("verify-identities", "identities.radius=10 identities.k=0"),
        ("verify-identities", "identities.radius=10 identities.k=8 nf.dt=-1e-5"),
        # a value of the wrong type is named like one out of range
        ("kdv-limit", "grid.k=1.5"),
        ("simulate", "T=true"),
        ("verify-identities", "identities.radius=2.5"),
        ("estimate-constants", "constants.k=[8,16.5]"),
        ("simulate", "s.values=0.5"),
        # a repeated value would repeat a CSV column or a verdict
        ("simulate", "s.values=[0.5,0.5]"),
        ("simulate", "s.values=[0.5,0.5000001]"),  # both name the column hs_gap_s0.5
        ("smoothing", "s.values=[0.5,0.9,0.5]"),
        ("estimate-constants", "rho.trials=1 constants.trials=1 constants.eps=[0.01,0.01]"),
        ("verify-identities", "nf.time=null"),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, command, override):
        # override holds one or more settings; the last one is out of range
        settings = [arg for text in override.split() for arg in ("--set", text)]
        code = run_cli(command, "--out", str(tmp_path), "--quiet", *settings)
        assert code == EXIT_CONFIG
        assert override.split()[-1].split("=")[0] in capsys.readouterr().err

    def test_restart_at_the_last_sample_exits_config(self, tmp_path, capsys):
        # the restart sample is the last one, so the restarted gap would be 0/0
        code = run_cli(
            "smoothing", "--out", str(tmp_path), "--quiet", "--set", "T=0.5",
            "--set", "ladder.k=[16,32,64]", "--set", "sample.stride=200",
            "--set", "restart.fraction=0.99",
        )
        assert code == EXIT_CONFIG
        assert "restart.fraction" in capsys.readouterr().err

    def test_solver_failure_prints_only_the_solver_line(self, tmp_path, capsys):
        # the blow-up's overflow raises no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("simulate", "--out", str(tmp_path), "--quiet", "--set", "h=0.05")
        assert code == 3
        assert capsys.readouterr().err == (
            "solver failure: non-finite state at t = 0.85; reduce the step size\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--out", str(tmp_path), "--quiet",
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
        (["simulate", *SMALL], ["run_energy_envelope"]),
        (["envelope", *SMALL], ["run_energy_envelope", "run_absorbing_ball"]),
        (["attractor", "--set", "T=10", "--set", "gamma=1.0", "--set", "grid.k=16",
          "--set", "h=0.002", "--set", "sample.stride=500"], ["run_attractor_probe"]),
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
            assert run_cli("simulate", "--out", str(out), "--quiet", *SMALL) == EXIT_OK
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        ra = read_report_json(a / "report_energy_envelope.json")
        rb = read_report_json(b / "report_energy_envelope.json")
        assert ra["content"] == rb["content"]  # meta carries wall time only


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
        assert content["config_hash"] == report.config.hash()
        assert content["verdicts"][0].keys() == {"name", "passed", "measured", "tolerance"}
        assert "fdkdv" in content["versions"]


class TestPlotScript:
    def test_empty_directory_names_expected_files(self, tmp_path):
        with pytest.raises(MissingArtifactsError, match="trajectory.csv"):
            emit_plot_script(tmp_path)

    def test_envelope_block(self, tmp_path):
        write_trajectory_csv(TestTrajectoryCsv()._traj(2), tmp_path / "trajectory.csv")
        script = emit_plot_script(tmp_path).read_text()
        assert "envelope.svg" in script
        assert "'trajectory.csv'" in script  # relative reference

    def test_smoothing_block_one_curve_per_rung(self, tmp_path):
        traj = TestTrajectoryCsv()._traj(2)
        for K in (16, 32, 64):
            write_trajectory_csv(traj, tmp_path / f"smoothing_K{K}.csv")
        script = emit_plot_script(tmp_path).read_text()
        assert script.count("smoothing_K") == 3

    def test_script_text_is_pinned(self, tmp_path):
        traj = TestTrajectoryCsv()._traj(2)
        for name in ("trajectory", "smoothing_K16", "smoothing_K32",
                     "attractor_seed11", "attractor_seed12"):
            write_trajectory_csv(traj, tmp_path / f"{name}.csv")
        assert emit_plot_script(tmp_path).read_text() == (
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
        traj = TestTrajectoryCsv()._traj(2)
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        for seed in (11, 12):
            write_trajectory_csv(traj, tmp_path / f"attractor_seed{seed}.csv")
        script = emit_plot_script(tmp_path).read_text()
        for fname, col1, col2 in re.findall(r"'([\w.]+\.csv)' using (\d+):(\d+)", script):
            csv = tmp_path / fname
            assert csv.exists()
            header = csv.read_text().split("\n")[0].split(",")
            rows = csv.read_text().strip().split("\n")[1:]
            assert int(col1) <= len(header) and int(col2) <= len(header)
            for row in rows:
                fields = row.split(",")
                float(fields[int(col1) - 1]); float(fields[int(col2) - 1])
