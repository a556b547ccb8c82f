"""Command-line front end: config parsing, experiment dispatch, CSV/JSON
serialization, and emission of gnuplot scripts.  Each command accepts only
the config keys its experiments read; commands only compute, and one writer
makes the output directory and every artifact afterwards.

Exit codes: 0 all assertions passed, 1 assertion failure (a too-short
horizon fails its horizon_sufficient verdict), 2 config error, 3 solver
failure; a run exiting 2 or 3 writes nothing.
"""

from __future__ import annotations

import argparse
import fnmatch
import itertools
import json
import os
import shutil
import sys
import time
from pathlib import Path

from .experiments import (
    CONFIG_KEYS,
    DEFAULT_ENVELOPE_SUITE,
    ConfigError,
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

# sobolev_norm stays bound here: the traced benchmark (bench/tracing.py)
# patches it on this module.
from .spectral import sobolev_norm, sobolev_norms  # noqa: F401

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

OUT_ROOT_ENV = "FDKDV_OUT_ROOT"


def write_trajectory_csv(traj: TrajectoryRecord, path, s_values=(0.5,)) -> None:
    """Columns: t, l2_norm, envelope, then hs_gap_s{s} and hs_norm_s{s} for
    each requested s; all floats carry 17 significant digits."""
    t, coefs, l2 = traj.times, traj.coefs, traj.l2_norms
    header = ["t", "l2_norm", "envelope"]
    columns = [t, l2, energy_envelope(t, l2[0], traj.forcing_l2, traj.gamma)]
    for s in s_values:
        header += [f"hs_gap_s{s:g}", f"hs_norm_s{s:g}"]
        columns += [smoothing_gap(coefs[0], coefs, t, traj.gamma, s), sobolev_norms(coefs, s)]
    rows = zip(*(column.tolist() for column in columns))
    lines = [",".join(header)] + [",".join(format(x, ".17g") for x in row) for row in rows]
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


def emit_plot_script(report_dir, names) -> Path:
    """Write plots.gp in report_dir for the CSVs there named in names, the
    ones a run just wrote (a reused directory's older CSVs stay out).

    One figure per artifact group found: norm-vs-envelope overlay, one gap
    curve per smoothing rung, one radius band per ensemble member.  The
    script references the CSVs relatively and needs only gnuplot.
    """
    report_dir = Path(report_dir)
    blocks = []
    for pattern, figure, title, curves in PLOT_GROUPS:
        plots = ", \\\n     ".join(
            f"'{name}' using 1:{column} with lines "
            f"title '{curve or Path(name).stem.split('_', 1)[1]}'"
            for name in sorted(fnmatch.filter(names, pattern))
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


def _read_overrides(args, command: str, keys: tuple[str, ...]) -> dict:
    """The user's config overrides as dotted keys: config-file values, then
    --set values (which beat them), then --seed (init.seed).  A key outside
    keys, the ones command reads, is a ConfigError naming it and command."""
    given = []  # (where, key, value), later ones winning
    if args.config is not None:
        path = Path(args.config)
        loaded = read_report_json(path)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        given += [(path, key, value) for key, value in loaded.items()]
    given += [("--set", *_parse_override(text)) for text in args.set or []]
    if args.seed is not None:
        given.append(("--seed", "init.seed", args.seed))
    for where, key, _ in given:
        if key not in keys:
            raise ConfigError(f"{where}: {command} reads no key {key!r}; "
                              f"its keys are {', '.join(keys)}")
    return {key: value for _, key, value in given}


def _out_dir(args) -> Path:
    """The output directory, checked (a file at it or above it exits 2) but not made."""
    if args.out is not None:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUT_ROOT_ENV, "runs")) / time.strftime("%Y%m%d-%H%M%S")
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not existing.is_dir():
        raise ConfigError(f"cannot make output directory {out}: {existing} is not a directory")
    return out


def _make_dir(out: Path, stamped: bool) -> Path:
    """Make out and return it.  A stamped default directory is made exclusively,
    so a run never writes into another's: if out exists, out-2, out-3, ... is
    made instead.  An explicit --out may be reused."""
    for n in itertools.count(1):
        path = out if n == 1 else out.with_name(f"{out.name}-{n}")
        try:
            path.mkdir(parents=True, exist_ok=not stamped)
            return path
        except OSError as exc:
            if not (stamped and isinstance(exc, FileExistsError)):
                raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc


def _write(reports: list[RunReport], out: Path, stamped: bool) -> Path:
    """Make the output directory (_make_dir), write each trajectory to {key}.csv
    (a repeat is a byte copy), each report to report_{experiment}.json (_1, _2,
    ... if repeated) and plots.gp for these CSVs if there are any; return the
    directory."""
    out = _make_dir(out, stamped)
    written = {}  # (trajectory id, s values) -> its CSV
    names = []  # every CSV written, copies included
    experiments = [r.experiment for r in reports]
    for i, report in enumerate(reports):
        for name, traj in report.trajectories.items():
            path, key = out / f"{name}.csv", (id(traj), report.config.s_values)
            if key in written:
                shutil.copyfile(written[key], path)
            else:
                write_trajectory_csv(traj, path, s_values=report.config.s_values)
                written[key] = path
            names.append(path.name)
        label = report.experiment
        if experiments.count(label) > 1:
            label += f"_{experiments[:i + 1].count(label)}"
        write_report_json(report, out / f"report_{label}.json")
    if names:
        emit_plot_script(out, names)
    return out


def cmd_envelope(cfg: RunConfig, overrides: dict) -> list[RunReport]:
    envelope = run_energy_envelope(cfg)
    forced = envelope.measured["forcing_l2"] > 0
    return [envelope, run_absorbing_ball(envelope)] if forced else [envelope]


def cmd_verify_identities(cfg: RunConfig, overrides: dict) -> list[RunReport]:
    """Identity checks on cfg, then the three residual configs with exactly
    the nf.* keys the user gave applied to each."""
    nf = {key: getattr(cfg, key.replace(".", "_")) for key in ("nf.time", "nf.dt")
          if key in overrides}
    return [run_identity_checks(cfg)] + [
        run_normal_form_residual(RunConfig.from_mapping(residual_cfg.to_mapping() | nf))
        for residual_cfg in default_residual_configs()
    ]


# name -> (default config, command, accepted keys: its experiments' CONFIG_KEYS,
# and for verify-identities the nf.* keys it hands to the residual runs).  A
# command maps the validated config and the user's overrides to its reports.
# Runners are looked up by name when a command runs, so wrappers patched onto
# this module's run_* names (bench/tracing.py) see them.
COMMANDS = {
    "verify-identities": (RunConfig(), cmd_verify_identities,
                          CONFIG_KEYS["identity_checks"] + ("nf.time", "nf.dt")),
    "estimate-constants": (RunConfig(s_values=(0.5, 0.9), rho_trials=2000),
                           lambda cfg, _: [run_constant_estimates(cfg)],
                           CONFIG_KEYS["constant_estimates"]),
    "smoothing": (default_smoothing_config(), lambda cfg, _: [run_smoothing_ladder(cfg)],
                  CONFIG_KEYS["smoothing_ladder"]),
    "envelope": (DEFAULT_ENVELOPE_SUITE[2], cmd_envelope, CONFIG_KEYS["energy_envelope"]),
    "attractor": (default_attractor_config(), lambda cfg, _: [run_attractor_probe(cfg)],
                  CONFIG_KEYS["attractor_probe"]),
    "kdv-limit": (default_kdv_limit_config(), lambda cfg, _: [run_kdv_limit(cfg)],
                  CONFIG_KEYS["kdv_limit"]),
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
    default, command, keys = COMMANDS[args.command]
    try:
        overrides = _read_overrides(args, args.command, keys)
        cfg = RunConfig.from_mapping(default.to_mapping() | overrides)
        out = _out_dir(args)
        reports = command(cfg, overrides)
        out = _write(reports, out, stamped=args.out is None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for r in reports:
        if "diagnostic" in r.measured:
            print(f"horizon diagnostic: {r.measured['diagnostic']}", file=sys.stderr)
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
