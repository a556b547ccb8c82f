"""Command-line front end: config parsing, experiment dispatch, CSV/JSON
serialization, and emission of gnuplot scripts.

Exit codes: 0 all assertions passed, 1 assertion failure (including horizon
diagnostics), 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from .experiments import (
    DEFAULT_ENVELOPE_SUITE,
    ConfigError,
    HorizonError,
    RunConfig,
    RunReport,
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
from .flow import StepFailureError, TrajectoryRecord, energy_envelope
from .normal_form import smoothing_gap
from .spectral import sobolev_norm

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

OUT_ROOT_ENV = "FDKDV_OUT_ROOT"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: TrajectoryRecord, path, s_values=(0.5,)) -> None:
    """Columns: t, l2_norm, envelope, then hs_gap_s{s} and hs_norm_s{s} for
    each requested s; all floats carry 17 significant digits."""
    s_values = tuple(s_values)
    u0 = traj.states[0]
    header = ["t", "l2_norm", "envelope"]
    for s in s_values:
        header += [f"hs_gap_s{s:g}", f"hs_norm_s{s:g}"]
    lines = [",".join(header)]
    envelope = energy_envelope(traj.times, traj.l2_norms[0], traj.forcing_l2, traj.gamma)
    for t, state, norm, env in zip(traj.times, traj.states, traj.l2_norms, envelope):
        row = [_fmt(t), _fmt(norm), _fmt(env)]
        for s in s_values:
            row.append(_fmt(smoothing_gap(u0, state, float(t), traj.gamma, s)))
            row.append(_fmt(sobolev_norm(state, s)))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def report_to_json_dict(report: RunReport) -> dict:
    """Deterministic content plus non-hashed meta (wall time)."""
    return {
        "content": report.content_dict(),
        "meta": {"wall_time_s": report.wall_time_s},
    }


def write_report_json(report: RunReport, path) -> None:
    payload = report_to_json_dict(report)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_report_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


# One figure per artifact group: glob, figure, title, and the (column, curve
# title) pairs plotted from each matching CSV.  A None curve title names the
# curve after the file stem's tail (the rung or ensemble member).
PLOT_GROUPS = (
    ("trajectory.csv", "envelope.svg", "l2 norm vs closed-form envelope",
     ((2, "l2 norm"), (3, "envelope"))),
    ("smoothing_K*.csv", "smoothing_gaps.svg",
     "nonlinear remainder H^s gap across truncations", ((4, None),)),
    ("attractor_seed*.csv", "attractor_radii.svg",
     "late-time H^s radius per ensemble member", ((5, None),)),
)


class MissingArtifactsError(FileNotFoundError):
    pass


def emit_plot_script(report_dir) -> Path:
    """Write plots.gp next to the CSVs this tool produced.

    One figure per artifact group found: norm-vs-envelope overlay, one gap
    curve per smoothing rung, one radius band per ensemble member.  The
    script references the CSVs relatively and needs only gnuplot.
    """
    report_dir = Path(report_dir)
    blocks = []
    for pattern, figure, title, curves in PLOT_GROUPS:
        plots = ", \\\n     ".join(
            f"'{p.name}' using 1:{column} with lines "
            f"title '{curve or p.stem.split('_', 1)[1]}'"
            for p in sorted(report_dir.glob(pattern))
            for column, curve in curves
        )
        if plots:
            blocks.append(
                f"set output '{figure}'\nset title '{title}'\nset xlabel 't'\nplot {plots}"
            )
    if not blocks:
        expected = ", ".join(group[0] for group in PLOT_GROUPS)
        raise MissingArtifactsError(
            f"no plottable CSVs in {report_dir}; expected any of: {expected}"
        )
    prelude = "\n".join(
        [
            "# generated plotting script; run with: gnuplot plots.gp",
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set terminal svg size 900,600",
        ]
    )
    script = "\n\n".join([prelude] + blocks)
    path = report_dir / "plots.gp"
    path.write_text(script + "\n")
    return path


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings stay strings
    return key.strip(), value


def _read_overrides(args) -> dict:
    """The user's config overrides as dotted keys: config-file values, then
    --set values (which beat them), then --seed."""
    known = RunConfig().to_mapping()
    overrides = {}
    if args.config is not None:
        path = Path(args.config)
        loaded = read_report_json(path)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for key in loaded:
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r}")
        overrides.update(loaded)
    for text in args.set or []:
        key, value = _parse_override(text)
        if key not in known:
            raise ConfigError(f"--set: unknown key {key!r}")
        overrides[key] = value
    if args.seed is not None:
        overrides["init.seed"] = args.seed
    return overrides


def _out_dir(args) -> Path:
    if args.out is not None:
        root = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs")) / time.strftime("%Y%m%d-%H%M%S")
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at root or on the way to it
        raise ConfigError(f"cannot make output directory {root}: {exc.strerror}") from exc
    return root


def _emit(report: RunReport, out: Path, label: str | None = None) -> None:
    """Write each of the report's trajectories to {key}.csv, and its JSON."""
    for name, traj in report.trajectories.items():
        write_trajectory_csv(traj, out / f"{name}.csv", s_values=report.config.s_values)
    write_report_json(report, out / f"report_{label or report.experiment}.json")


def _horizon_checked(experiment: str, cfg: RunConfig, run, *args) -> RunReport:
    """run(*args), or the failed-verdict report of experiment when its horizon
    was too short; keeps the 'report always written' contract for diagnostic
    failures."""
    try:
        return run(*args)
    except HorizonError as exc:
        print(f"horizon diagnostic: {exc}", file=sys.stderr)
        report = RunReport(experiment, cfg)
        report.check("horizon_sufficient", 1.0, 0.0)  # fails by construction
        report.measured["diagnostic"] = str(exc)
        return report


def _single(run):
    """Command that runs one experiment on the config and writes its report."""
    def command(cfg: RunConfig, overrides: dict, out: Path) -> list[RunReport]:
        report = run(cfg)
        _emit(report, out)
        return [report]
    return command


def cmd_envelope(cfg: RunConfig, overrides: dict, out: Path) -> list[RunReport]:
    envelope = run_energy_envelope(cfg)
    _emit(envelope, out)
    if envelope.measured["forcing_l2"] == 0:
        return [envelope]
    ball = _horizon_checked("absorbing_ball", cfg, run_absorbing_ball, envelope)
    if ball.trajectories:  # a horizon failure judged no trajectory
        # the verdict judges the trajectory just written: copy its bytes
        shutil.copyfile(out / "trajectory.csv", out / "absorbing.csv")
    write_report_json(ball, out / "report_absorbing_ball.json")
    return [envelope, ball]


def cmd_verify_identities(cfg: RunConfig, overrides: dict, out: Path) -> list[RunReport]:
    """Identity checks on cfg, then the three residual configs with exactly
    the user's nf.* overrides applied to each."""
    reports = [run_identity_checks(cfg)]
    _emit(reports[0], out)
    nf = {key: value for key, value in overrides.items() if key.startswith("nf.")}
    for i, residual_cfg in enumerate(default_residual_configs(), start=1):
        report = run_normal_form_residual(RunConfig.from_mapping(residual_cfg.to_mapping() | nf))
        reports.append(report)
        _emit(report, out, label=f"normal_form_residual_{i}")
    return reports


# name -> (default config, command).  A command takes the validated config,
# the user's overrides and the output directory, writes its artifacts and
# returns its reports.  Runners are looked up by name when a command runs, so
# wrappers patched onto this module's run_* names (bench/tracing.py) see them.
COMMANDS = {
    "simulate": (RunConfig(grid_k=64, T=5.0, init_sigma=2.5),
                 _single(lambda cfg: run_energy_envelope(cfg))),
    "verify-identities": (RunConfig(), cmd_verify_identities),
    "estimate-constants": (RunConfig(s_values=(0.5, 0.9), rho_trials=2000),
                           _single(lambda cfg: run_constant_estimates(cfg))),
    "smoothing": (default_smoothing_config(), _single(lambda cfg: run_smoothing_ladder(cfg))),
    "envelope": (DEFAULT_ENVELOPE_SUITE[2], cmd_envelope),
    "attractor": (default_attractor_config(), _single(
        lambda cfg: _horizon_checked("attractor_probe", cfg, run_attractor_probe, cfg))),
    "kdv-limit": (default_kdv_limit_config(), _single(lambda cfg: run_kdv_limit(cfg))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdkdv",
        description="Forced, weakly damped KdV on the torus: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON config with dotted keys")
        p.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<stamp>)")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a config key (repeatable; beats file values)",
        )
        p.add_argument("--seed", type=int, help="override init.seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def parse_and_dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    default, command = COMMANDS[args.command]
    try:
        overrides = _read_overrides(args)
        cfg = RunConfig.from_mapping(default.to_mapping() | overrides)
        out = _out_dir(args)
        reports = command(cfg, overrides, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        emit_plot_script(out)
    except MissingArtifactsError:
        pass  # report-only runs have nothing to plot
    ok = all(r.passed for r in reports)
    if not args.quiet:
        for r in reports:
            for c in r.checks:
                print(
                    f"[{r.experiment}] {c.name}: measured={c.measured:.6g} "
                    f"tolerance={c.tolerance:.6g} {'pass' if c.passed else 'FAIL'}"
                )
        print(f"{'PASS' if ok else 'FAIL'}: artifacts in {out}")
    return EXIT_OK if ok else EXIT_ASSERTION


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
