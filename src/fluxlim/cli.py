"""Command-line entry point: parses arguments and dispatches.

Subcommands:
  simulate            one run: diagnostics CSV plus snapshots
  study viscosity     vanishing-viscosity Cauchy sweep
  study contraction   relative-entropy contraction between two runs
  study smoothing     sup-norm smoothing envelope over a spike family
  check monotonicity  randomized flux-map monotonicity probe
  steady check        stationary-profile residual and drift check

Every study, the steady check included, is a ``studies`` function of its
configs that returns a ``StudyReport``; this module only reads the configs,
writes the outputs and maps errors to exit codes. Every command checks its ``out`` with
``_check_out`` before it runs and makes it only after the run succeeds: a failing command
leaves no directory. The ``studies`` module is loaded only by the commands that run a study
or a check, so ``simulate`` never loads it.

Exit codes, mapped in ``main`` alone by exception class: 0 all verdicts pass;
1 configuration error, a ``ValueError`` or ``OSError`` (bad config or command
line, input a study rejects, unwritable outputs); 2 numerical failure, a
``NumericalFailureError`` (CFL violations included); 3 verdict failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, build_controls, build_problem, parse_config
from .diagnostics import COLUMNS, csv_row
from .grid import save_snapshot
from .limiter import Params
from .stepping import NumericalFailureError, run

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 1); exit 2 means numerical failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message} (see {self.prog} --help)")


def _load_config(path: str, args) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    return replace(cfg, out=args.out) if args.out else cfg


def _studies() -> dict:
    """The study of each command that runs one, by name, loaded when the first is run."""
    from .studies import contraction_study, monotonicity_test, smoothing_study, steady_study, viscosity_study

    return {"viscosity": viscosity_study, "contraction": contraction_study, "smoothing": smoothing_study,
            "steady": steady_study, "monotonicity": monotonicity_test}


def _check_out(out: str) -> None:
    """Refuse an ``out`` that cannot be a directory, before a command runs, creating nothing: it holds
    no NUL byte (``Path.exists`` is False for one), and its first existing path up is a directory."""
    if "\0" in out:
        raise ConfigError("embedded null byte")
    path = Path(out)
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise ConfigError(f"cannot write outputs: {path} is not a directory")


def _report(study: str, inputs, out: str | None) -> int:
    """Run the study named ``study`` (see ``_studies``) on ``inputs``, print its report, write
    it under ``out`` when given and return 0 if every verdict passes, else 3; errors go to main."""
    if out is not None:
        _check_out(out)
    report = _studies()[study](*inputs)
    text = report.to_text()
    if out is not None:
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text, encoding="utf-8")
        (out / "study.csv").write_text(report.to_csv(), encoding="utf-8")
    sys.stdout.write(text)
    return 0 if report.all_pass else 3


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    _check_out(cfg.out)
    _, initial, first = build_problem(cfg)
    traj, = run([initial], [Params(cfg.chi, cfg.eps)], build_controls(cfg), [cfg.t_end],
                diag_stride=cfg.diag_stride, snapshot_stride=cfg.snapshot_stride, initial_records=[first])
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(COLUMNS)] + [csv_row(rec) for rec in traj.records]
    (out / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    save_snapshot(traj.snapshots[0][1], out / "snapshot_initial.txt")
    save_snapshot(traj.snapshots[-1][1], out / "snapshot_final.txt")
    for idx, (_, field) in enumerate(traj.snapshots[1:-1], start=1):
        save_snapshot(field, out / f"snapshot_{idx:06d}.txt")
    sys.stdout.write(f"simulate wrote {len(traj.records)} records to {out / 'diagnostics.csv'}\n")
    return 0


def _cmd_study(args) -> int:
    cfgs = [_load_config(args.config, args)]
    if "config2" in args:  # study contraction: the second run defaults to the first
        cfgs.append(_load_config(args.config2, args) if args.config2 else cfgs[0])
    return _report(args.study, cfgs, cfgs[0].out)


def _cmd_check_monotonicity(args) -> int:
    return _report("monotonicity", (args.samples, args.seed), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fluxlim", description="flux-limited degenerate diffusion toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, about=None, **defaults):
        p = subparsers.add_parser(name, help=about)
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.set_defaults(func=func, **defaults)
        return p

    command(sub, "simulate", _cmd_simulate, "run one configuration")

    study_sub = sub.add_parser("study", help="run an experiment harness").add_subparsers(
        dest="study_kind", required=True)
    command(study_sub, "viscosity", _cmd_study, study="viscosity")
    command(study_sub, "contraction", _cmd_study, study="contraction").add_argument(
        "--config2", default=None, help="second run (defaults to --config)")
    command(study_sub, "smoothing", _cmd_study, study="smoothing")

    check_sub = sub.add_parser("check", help="randomized property checks").add_subparsers(
        dest="check_kind", required=True)
    p_mono = check_sub.add_parser("monotonicity")
    p_mono.add_argument("--samples", type=int, default=100_000)
    p_mono.add_argument("--seed", type=int, default=0)
    p_mono.add_argument("--out", default=None)
    p_mono.set_defaults(func=_cmd_check_monotonicity)

    steady_sub = sub.add_parser("steady", help="stationary profile checks").add_subparsers(
        dest="steady_kind", required=True)
    command(steady_sub, "check", _cmd_study, study="steady")
    return parser


def main(argv=None) -> int:
    """Run the command of ``argv``: the one place that maps an exception to an exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except OSError as exc:  # a config or snapshot that cannot be read is a ConfigError already
        sys.stderr.write(f"config error: cannot write outputs: {exc}\n")
        return 1
    except NumericalFailureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
