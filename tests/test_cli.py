import json
import re

import pytest

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

    def test_envelope_writes_both_reports(self, tmp_path):
        code = run_cli(
            "envelope", "--out", str(tmp_path), "--quiet",
            "--set", "grid.k=16", "--set", "T=2.0", "--set", "init.sigma=2.5",
        )
        assert code == EXIT_OK
        assert (tmp_path / "report_energy_envelope.json").exists()
        assert (tmp_path / "report_absorbing_ball.json").exists()

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
