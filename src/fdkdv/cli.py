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


def _envelope_value(t: float, u0_l2: float, f_l2: float, gamma: float) -> float:
    if gamma > 0:
        return energy_envelope(t, u0_l2, f_l2, gamma)
    return u0_l2 + f_l2 * t  # gamma -> 0 limit (conservation runs)


def write_trajectory_csv(traj: TrajectoryRecord, path, s_values=(0.5,)) -> None:
    """Columns: t, l2_norm, envelope, then hs_gap_s{s} and hs_norm_s{s} for
    each requested s; all floats carry 17 significant digits."""
    s_values = tuple(s_values)
    u0 = traj.states[0]
    header = ["t", "l2_norm", "envelope"]
    for s in s_values:
        header += [f"hs_gap_s{s:g}", f"hs_norm_s{s:g}"]
    lines = [",".join(header)]
    for t, state, norm in zip(traj.times, traj.states, traj.l2_norms):
        row = [
            _fmt(t),
            _fmt(norm),
            _fmt(_envelope_value(float(t), traj.l2_norms[0], traj.forcing_l2, traj.gamma)),
        ]
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


PLOT_GROUPS = {
    "envelope": ("trajectory.csv",),
    "smoothing": ("smoothing_K*.csv",),
    "attractor": ("attractor_seed*.csv",),
}


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
    trajectory = report_dir / "trajectory.csv"
    rungs = sorted(report_dir.glob("smoothing_K*.csv"))
    members = sorted(report_dir.glob("attractor_seed*.csv"))
    if trajectory.exists():
        blocks.append(
            "\n".join(
                [
                    "set output 'envelope.svg'",
                    "set title 'l2 norm vs closed-form envelope'",
                    "set xlabel 't'",
                    "plot 'trajectory.csv' using 1:2 with lines title 'l2 norm', \\",
                    "     'trajectory.csv' using 1:3 with lines title 'envelope'",
                ]
            )
        )
    if rungs:
        plots = ", \\\n     ".join(
            f"'{p.name}' using 1:4 with lines title '{p.stem.replace('smoothing_', '')}'"
            for p in rungs
        )
        blocks.append(
            "\n".join(
                [
                    "set output 'smoothing_gaps.svg'",
                    "set title 'nonlinear remainder H^s gap across truncations'",
                    "set xlabel 't'",
                    f"plot {plots}",
                ]
            )
        )
    if members:
        plots = ", \\\n     ".join(
            f"'{p.name}' using 1:5 with lines title '{p.stem.replace('attractor_', '')}'"
            for p in members
        )
        blocks.append(
            "\n".join(
                [
                    "set output 'attractor_radii.svg'",
                    "set title 'late-time H^s radius per ensemble member'",
                    "set xlabel 't'",
                    f"plot {plots}",
                ]
            )
        )
    if not blocks:
        expected = ", ".join(p for group in PLOT_GROUPS.values() for p in group)
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


def load_config(args, default: RunConfig) -> RunConfig:
    """File values override defaults; --set overrides beat file values."""
    mapping = default.to_mapping()
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for key, value in loaded.items():
            if key not in mapping:
                raise ConfigError(f"{path}: unknown key {key!r}")
            mapping[key] = value
    for text in args.set or []:
        key, value = _parse_override(text)
        if key not in mapping:
            raise ConfigError(f"--set: unknown key {key!r}")
        mapping[key] = value
    if args.seed is not None:
        mapping["init.seed"] = args.seed
    return RunConfig.from_mapping(mapping)


def _out_dir(args) -> Path:
    if args.out is not None:
        root = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs")) / time.strftime("%Y%m%d-%H%M%S")
    root.mkdir(parents=True, exist_ok=True)
    return root


def _emit(report: RunReport, out: Path, quiet: bool,
          csv_map: dict[str, str | None] | None = None, label: str | None = None):
    """Write the report's trajectory CSVs (csv_map renames them; a name
    mapped to None is not written) and its JSON, and print its verdicts."""
    for name, traj in report.trajectories.items():
        fname = (csv_map or {}).get(name, f"{name}.csv")
        if fname is not None:
            write_trajectory_csv(traj, out / fname, s_values=report.config.s_values)
    write_report_json(report, out / f"report_{label or report.experiment}.json")
    if not quiet:
        for c in report.checks:
            print(
                f"[{report.experiment}] {c.name}: measured={c.measured:.6g} "
                f"tolerance={c.tolerance:.6g} {'pass' if c.passed else 'FAIL'}"
            )


def _finish(reports: list[RunReport], out: Path, quiet: bool) -> int:
    try:
        emit_plot_script(out)
    except MissingArtifactsError:
        pass  # report-only runs have nothing to plot
    ok = all(r.passed for r in reports)
    if not quiet:
        print(f"{'PASS' if ok else 'FAIL'}: artifacts in {out}")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_simulate(args) -> int:
    cfg = load_config(args, RunConfig(grid_k=64, T=5.0, init_sigma=2.5))
    out = _out_dir(args)
    report = run_energy_envelope(cfg)
    _emit(report, out, args.quiet, {"trajectory": "trajectory.csv"})
    return _finish([report], out, args.quiet)


def _horizon_failure(experiment: str, cfg: RunConfig, exc: HorizonError) -> RunReport:
    """Failed-verdict report for a run whose horizon was too short; keeps the
    'report always written' contract for diagnostic failures."""
    print(f"horizon diagnostic: {exc}", file=sys.stderr)
    report = RunReport(experiment, cfg)
    report.check("horizon_sufficient", 1.0, 0.0)  # fails by construction
    report.measured["diagnostic"] = str(exc)
    return report


def cmd_envelope(args) -> int:
    cfg = load_config(args, DEFAULT_ENVELOPE_SUITE[2])
    out = _out_dir(args)
    reports = [run_energy_envelope(cfg)]
    _emit(reports[0], out, args.quiet, {"trajectory": "trajectory.csv"})
    if reports[0].measured["forcing_l2"] > 0:
        try:
            reports.append(run_absorbing_ball(reports[0]))
            # the verdict judges the trajectory just written: copy its bytes
            shutil.copyfile(out / "trajectory.csv", out / "absorbing.csv")
            _emit(reports[1], out, args.quiet, {"trajectory": None})
        except HorizonError as exc:
            reports.append(_horizon_failure("absorbing_ball", cfg, exc))
            _emit(reports[-1], out, args.quiet)
    return _finish(reports, out, args.quiet)


def cmd_smoothing(args) -> int:
    cfg = load_config(args, default_smoothing_config())
    out = _out_dir(args)
    report = run_smoothing_ladder(cfg)
    csv_map = {name: f"smoothing_{name.split('_')[1]}.csv" for name in report.trajectories}
    _emit(report, out, args.quiet, csv_map)
    return _finish([report], out, args.quiet)


def cmd_attractor(args) -> int:
    cfg = load_config(args, default_attractor_config())
    out = _out_dir(args)
    try:
        report = run_attractor_probe(cfg)
    except HorizonError as exc:
        report = _horizon_failure("attractor_probe", cfg, exc)
        _emit(report, out, args.quiet)
        return _finish([report], out, args.quiet)
    csv_map = {
        name: f"attractor_{name.split('_')[1]}.csv" for name in report.trajectories
    }
    _emit(report, out, args.quiet, csv_map)
    return _finish([report], out, args.quiet)


def cmd_kdv_limit(args) -> int:
    cfg = load_config(args, default_kdv_limit_config())
    out = _out_dir(args)
    report = run_kdv_limit(cfg)
    _emit(report, out, args.quiet, {"trajectory": "trajectory.csv"})
    return _finish([report], out, args.quiet)


def cmd_verify_identities(args) -> int:
    from dataclasses import replace

    cfg = load_config(args, RunConfig())
    out = _out_dir(args)
    reports = [run_identity_checks(cfg)]
    _emit(reports[0], out, args.quiet)
    defaults = RunConfig()
    for i, residual_cfg in enumerate(default_residual_configs(), start=1):
        # honor nf.* overrides while keeping the three distinct configs
        if cfg.nf_time != defaults.nf_time or cfg.nf_dt != defaults.nf_dt:
            residual_cfg = replace(residual_cfg, nf_time=cfg.nf_time, nf_dt=cfg.nf_dt)
        report = run_normal_form_residual(residual_cfg)
        reports.append(report)
        _emit(report, out, args.quiet, label=f"normal_form_residual_{i}")
    return _finish(reports, out, args.quiet)


def cmd_estimate_constants(args) -> int:
    cfg = load_config(args, RunConfig(s_values=(0.5, 0.9), rho_trials=2000))
    out = _out_dir(args)
    report = run_constant_estimates(cfg)
    _emit(report, out, args.quiet)
    return _finish([report], out, args.quiet)


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-identities": cmd_verify_identities,
    "estimate-constants": cmd_estimate_constants,
    "smoothing": cmd_smoothing,
    "envelope": cmd_envelope,
    "attractor": cmd_attractor,
    "kdv-limit": cmd_kdv_limit,
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
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HorizonError as exc:
        print(f"horizon diagnostic: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
