"""Command-line entry point.

Subcommands:
  simulate            one run: diagnostics CSV plus snapshots
  study viscosity     vanishing-viscosity Cauchy sweep
  study contraction   relative-entropy contraction between two runs
  study smoothing     sup-norm smoothing envelope over a spike family
  check monotonicity  randomized flux-map monotonicity probe
  steady check        stationary-profile residual and drift check

Exit codes: 0 all verdicts pass, 1 configuration error, 2 numerical
failure, 3 verdict failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, build_controls, build_params, build_problem, parse_config
from .diagnostics import csv_header, csv_row
from .grid import gradient_norm, integrate, save_snapshot
from .steady import eikonal_residual, stationarity_drift
from .stepping import CflViolationError, NumericalFailureError, run
from .studies import StudyReport, Verdict, contraction_study, monotonicity_test, smoothing_study, viscosity_study

__all__ = ["main"]


def _load_config(path: str, args) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    overrides = {}
    if getattr(args, "out", None):
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, report: StudyReport) -> None:
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "study.csv").write_text(report.to_csv(), encoding="utf-8")
    sys.stdout.write(report.to_text())


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    out = _out_dir(cfg)
    grid, initial = build_problem(cfg)
    traj = run(initial, build_params(cfg), build_controls(cfg), cfg.t_end,
               diag_stride=cfg.diag_stride, p_set=cfg.p_set, grad_p_set=cfg.grad_p_set,
               scheme=cfg.scheme, snapshot_stride=cfg.snapshot_stride)
    lines = [csv_header(cfg.p_set, cfg.grad_p_set)]
    lines += [csv_row(rec) for rec in traj.records]
    (out / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    save_snapshot(traj.snapshots[0][1], out / "snapshot_initial.txt")
    save_snapshot(traj.snapshots[-1][1], out / "snapshot_final.txt")
    for idx, (_, field) in enumerate(traj.snapshots[1:-1], start=1):
        save_snapshot(field, out / f"snapshot_{idx:06d}.txt")
    sys.stdout.write(f"simulate wrote {len(traj.records)} records to {out / 'diagnostics.csv'}\n")
    return 0


def _study_exit(report: StudyReport) -> int:
    return 0 if report.all_pass else 3


def _study_report(study, *cfgs) -> StudyReport:
    """Run a study; its input checks raise ValueError, reported as a config
    error, while a CFL violation stays a numerical failure as in simulate."""
    try:
        return study(*cfgs)
    except CflViolationError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_study(args) -> int:
    cfg = _load_config(args.config, args)
    study = {"viscosity": viscosity_study, "smoothing": smoothing_study}[args.study_kind]
    report = _study_report(study, cfg)
    _write_report(_out_dir(cfg), report)
    return _study_exit(report)


def _cmd_study_contraction(args) -> int:
    cfg1 = _load_config(args.config, args)
    cfg2 = _load_config(args.config2, args) if args.config2 else cfg1
    report = _study_report(contraction_study, cfg1, cfg2)
    _write_report(_out_dir(cfg1), report)
    return _study_exit(report)


def _cmd_check_monotonicity(args) -> int:
    report = monotonicity_test(samples=args.samples, seed=args.seed if args.seed is not None else 0)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_report(out, report)
    else:
        sys.stdout.write(report.to_text())
    return _study_exit(report)


def _cmd_steady_check(args) -> int:
    cfg = _load_config(args.config, args)
    if cfg.ic not in ("single_peak", "multi_peak", "factorized"):
        raise ConfigError("invalid value for 'ic': steady check needs a stationary profile kind")
    if cfg.eps != 0.0:
        raise ConfigError("invalid value for 'eps': steady check runs inviscid")
    grid, field = build_problem(cfg)
    h = max(grid.spacing)
    mass = integrate(field)
    resid = eikonal_residual(field, cfg.chi).values
    drift = stationarity_drift(field, build_params(cfg), build_controls(cfg),
                               t_probe=min(cfg.t_end, 0.05) if cfg.t_end > 0 else 0.05)

    sup = float(field.values.max())
    live = field.values > 1e-8 * sup
    gn = gradient_norm(field)
    grad_over_rho = np.zeros_like(field.values)
    np.divide(gn, field.values, out=grad_over_rho, where=live)
    worst_log_grad = float(grad_over_rho.max(initial=0.0))
    log_bound = cfg.chi * (1.0 + (cfg.chi * h) ** 2)

    verdicts = [
        Verdict("steady_drift_small", drift <= max(cfg.chi * mass * h, 1e-14),
                f"drift per unit time {drift!r} allowance {max(cfg.chi * mass * h, 1e-14)!r}"),
        Verdict("steady_subcharacterization", worst_log_grad <= log_bound,
                f"max |grad rho|/rho {worst_log_grad!r} bound {log_bound!r}"),
    ]
    report = StudyReport(
        kind="steady_check",
        inputs=[("ic", cfg.ic), ("chi", repr(cfg.chi)), ("cells", str(cfg.cells)),
                ("mass", repr(mass))],
        columns=("quantity", "value"),
        rows=[("drift_rate", drift), ("residual_max", float(resid.max())),
              ("residual_median", float(np.median(resid))), ("mass", mass)],
        verdicts=verdicts,
        notes=[],
    )
    _write_report(_out_dir(cfg), report)
    return _study_exit(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluxlim",
                                     description="flux-limited degenerate diffusion toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="path to key = value config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="overrides the seed key, which no run reads")

    p_sim = sub.add_parser("simulate", help="run one configuration")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_study = sub.add_parser("study", help="run an experiment harness")
    study_sub = p_study.add_subparsers(dest="study_kind", required=True)
    p_visc = study_sub.add_parser("viscosity")
    common(p_visc)
    p_visc.set_defaults(func=_cmd_study)
    p_con = study_sub.add_parser("contraction")
    common(p_con)
    p_con.add_argument("--config2", default=None, help="second run (defaults to --config)")
    p_con.set_defaults(func=_cmd_study_contraction)
    p_smooth = study_sub.add_parser("smoothing")
    common(p_smooth)
    p_smooth.set_defaults(func=_cmd_study)

    p_check = sub.add_parser("check", help="randomized property checks")
    check_sub = p_check.add_subparsers(dest="check_kind", required=True)
    p_mono = check_sub.add_parser("monotonicity")
    p_mono.add_argument("--samples", type=int, default=100_000)
    p_mono.add_argument("--seed", type=int, default=0)
    p_mono.add_argument("--out", default=None)
    p_mono.set_defaults(func=_cmd_check_monotonicity)

    p_steady = sub.add_parser("steady", help="stationary profile checks")
    steady_sub = p_steady.add_subparsers(dest="steady_kind", required=True)
    p_scheck = steady_sub.add_parser("check")
    common(p_scheck)
    p_scheck.set_defaults(func=_cmd_steady_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (NumericalFailureError, CflViolationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
