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
writes the outputs and maps errors to exit codes.

Exit codes: 0 all verdicts pass, 1 configuration error (a bad config, a
bad command-line argument, or an input a study rejects), 2 numerical
failure (including a time step above the CFL ceiling), 3 verdict failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, RunConfig, build_controls, build_problem, parse_config
from .diagnostics import csv_header, csv_row
from .grid import save_snapshot
from .limiter import Params
from .stepping import CflViolationError, NumericalFailureError, run
from .studies import contraction_study, monotonicity_test, smoothing_study, steady_study, viscosity_study

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 1); exit 2 means numerical failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message} (see {self.prog} --help)")


def _load_config(path: str, args) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    return replace(cfg, out=args.out) if args.out else cfg


def _report(study, inputs, out: str | None) -> int:
    """Run ``study`` on ``inputs``, print its report, write it under ``out`` when given
    and return the exit code. The study's input checks raise ValueError, reported as a
    config error; a CFL violation stays a numerical failure, as in simulate."""
    try:
        report = study(*inputs)
    except CflViolationError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    _, initial, first = build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    traj, = run([initial], [Params(cfg.chi, cfg.eps)], build_controls(cfg), [cfg.t_end],
                diag_stride=cfg.diag_stride, p_set=cfg.p_set, grad_p_set=cfg.grad_p_set,
                snapshot_stride=cfg.snapshot_stride, initial_records=[first])
    lines = [csv_header(cfg.p_set, cfg.grad_p_set)]
    lines += [csv_row(rec) for rec in traj.records]
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
    return _report(monotonicity_test, (args.samples, args.seed), args.out)


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
    command(study_sub, "viscosity", _cmd_study, study=viscosity_study)
    command(study_sub, "contraction", _cmd_study, study=contraction_study).add_argument(
        "--config2", default=None, help="second run (defaults to --config)")
    command(study_sub, "smoothing", _cmd_study, study=smoothing_study)

    check_sub = sub.add_parser("check", help="randomized property checks").add_subparsers(
        dest="check_kind", required=True)
    p_mono = check_sub.add_parser("monotonicity")
    p_mono.add_argument("--samples", type=int, default=100_000)
    p_mono.add_argument("--seed", type=int, default=0)
    p_mono.add_argument("--out", default=None)
    p_mono.set_defaults(func=_cmd_check_monotonicity)

    steady_sub = sub.add_parser("steady", help="stationary profile checks").add_subparsers(
        dest="steady_kind", required=True)
    command(steady_sub, "check", _cmd_study, study=steady_study)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (NumericalFailureError, CflViolationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
