"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen. Tolerances are fixed here, never tuned at runtime; study
configurations were frozen after a grid-refinement calibration pass.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fluxlim.config import RunConfig
from fluxlim.diagnostics import l1_distance
from fluxlim.grid import Field, make_grid
from fluxlim.limiter import Params
from fluxlim.profiles import gaussian_bump, single_peak
from fluxlim.stepping import StepControls, cfl_dt, run
from fluxlim.studies import contraction_study, monotonicity_test, smoothing_study, viscosity_study


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def inviscid_bump_run():
    """Shared 1D run: Gaussian bump, eps = 0, 10^4 explicit CFL steps."""
    grid = make_grid(1, 5.0, 1000)
    bump = gaussian_bump(grid, 1.0, mass=1.0)
    dt = cfl_dt(grid, 0.0)
    t0 = time.perf_counter()
    traj, = run([bump], [Params(chi=1.0)], StepControls(dt=dt), [10_000 * dt],
                diag_stride=100)
    elapsed = time.perf_counter() - t0
    return traj, elapsed


def test_criterion_01_mass_law(inviscid_bump_run):
    traj, elapsed = inviscid_bump_run
    masses = np.array([r.mass for r in traj.records])
    drift = np.max(np.abs(masses - masses[0])) / masses[0]

    grid = make_grid(1, 5.0, 100)
    bump = gaussian_bump(grid, 1.0, mass=1.0)
    eps, t_end = 0.5, 2.0
    errs = {}
    for dt in (1e-3, 5e-4):
        t, = run([bump], [Params(chi=1.0, eps=eps)], StepControls(dt=dt), [t_end],
                 diag_stride=10**9)
        errs[dt] = abs(t.records[-1].mass / t.records[0].mass - np.exp(-1.0))
    halving = errs[5e-4] / errs[1e-3]

    ok = (drift <= 1e-11
          and errs[1e-3] <= 2 * eps * 1e-3
          and 0.35 <= halving <= 0.65
          and elapsed < 10.0)
    _verdict(1, "mass-law", ok,
             f"drift {drift:.2e}, eps-run error {errs[1e-3]:.2e} vs {2*eps*1e-3:.0e}, "
             f"halving ratio {halving:.3f}, runtime {elapsed:.2f}s")


def test_criterion_02_lp_decay(inviscid_bump_run):
    traj, _ = inviscid_bump_run
    ok = True
    worst = 0.0
    for p, norm in ((2.0, "l2"), (4.0, "l4")):
        lp_pow = np.array([getattr(r, norm) ** p for r in traj.records])
        rises = (lp_pow[1:] - lp_pow[:-1]) / lp_pow[:-1]
        worst = max(worst, float(rises.max(initial=-np.inf)))
        ok = ok and bool(np.all(rises <= 1e-10))
    _verdict(2, "lp-decay", ok, f"worst relative rise {worst:.2e} (slack 1e-10)")


def test_criterion_03_monotonicity_oracle():
    t0 = time.perf_counter()
    rep = monotonicity_test(samples=100_000, seed=2026)
    elapsed = time.perf_counter() - t0
    clamped = min(row[2] for row in rep.rows)
    unclamped = min(row[3] for row in rep.rows)
    ok = clamped >= -1e-12 and unclamped < -1e-6 and elapsed < 5.0
    _verdict(3, "monotonicity-oracle", ok,
             f"min clamped gap {clamped:.2e}, min non-clamped gap {unclamped:.2e}, "
             f"runtime {elapsed:.2f}s")


def test_criterion_04_steady_fixed_points():
    chi = 1.0
    params = Params(chi=chi)
    controls = StepControls()

    def drift_rate(field, t_probe):
        # L1 distance travelled per unit time, as the steady check measures it
        traj, = run([field], [params], controls, [t_probe], diag_stride=10**9)
        return l1_distance(traj.final, field) / t_probe

    grid = make_grid(1, 5.0, 500)
    x, = grid.centers()
    sub = Field.density(grid, np.exp(-0.5 * chi * np.abs(x)))
    sub_drift = drift_rate(sub, t_probe=0.01)

    drifts = {}
    for n in (500, 1000):
        g = make_grid(1, 5.0, n)
        peak = single_peak(g, chi, 0.0, mass=1.0)
        drifts[n] = drift_rate(peak, t_probe=0.02)
    h = 5.0 * 2 / 500
    bound_c = chi * chi * 1.0  # C = chi^2 * mass

    ok = (sub_drift == 0.0
          and drifts[500] <= bound_c * h
          and drifts[1000] <= 0.6 * drifts[500] + 1e-14)
    _verdict(4, "steady-fixed-points", ok,
             f"sub-critical drift {sub_drift!r}, peak drift h {drifts[500]:.2e}, "
             f"h/2 {drifts[1000]:.2e} (the sampled peak is an exact discrete fixed point)")


def test_criterion_05_entropy_fisher_bound():
    chi, t_end = 1.0, 1.0
    grid = make_grid(1, 10.0, 500)
    bump = gaussian_bump(grid, 2.0, mass=1.0)
    traj, = run([bump], [Params(chi=chi)], StepControls(), [t_end], diag_stride=1)
    times = np.array([r.time for r in traj.records])
    fisher = np.array([r.fisher for r in traj.records])
    e0 = traj.records[0].entropy
    eT = traj.records[-1].entropy
    mass = traj.records[0].mass
    lhs = eT + float(np.trapezoid(fisher, times))
    rhs = e0 + 0.5 * chi * chi * mass * t_end + 1e-6 * abs(e0)
    _verdict(5, "entropy-fisher-bound", lhs <= rhs,
             f"lhs {lhs:.6f} <= rhs {rhs:.6f} (margin {rhs - lhs:.3f})")


def _contraction_cfg(center, width):
    return RunConfig(dim=1, box_halfwidth=5.0, cells=400, chi=1.0, eps=0.0, t_end=0.05,
                     diag_stride=1, ic="gaussian", ic_width=width, ic_center=(center,),
                     ic_mass=1.0)


def test_criterion_06_relative_entropy_contraction():
    rep = contraction_study(_contraction_cfg(-0.7, 1.2), _contraction_cfg(0.7, 1.0))
    verdicts = {v.name: v for v in rep.verdicts}
    distinct_ok = (verdicts["contraction_H_nonincreasing"].passed
                   and verdicts["contraction_dissipation_nonneg"].passed)
    same = contraction_study(_contraction_cfg(0.0, 1.0), _contraction_cfg(0.0, 1.0))
    ident_ok = {v.name: v.passed for v in same.verdicts}["contraction_identity"]
    h_max_ident = max(r[1] for r in same.rows)
    ok = distinct_ok and ident_ok and h_max_ident <= 1e-12
    _verdict(6, "relative-entropy-contraction", ok,
             f"{verdicts['contraction_H_nonincreasing'].detail}; "
             f"identical-data max H {h_max_ident!r}")


def test_criterion_07_vanishing_viscosity_cauchy():
    base = RunConfig(dim=1, box_halfwidth=6.0, cells=400, chi=2.0, eps=0.0, t_end=0.5,
                     diag_stride=10**9, ic="gaussian", ic_width=0.3, ic_mass=1.0,
                     eps_list=(0.1, 0.05, 0.025, 0.0))
    rep = viscosity_study(base)
    ok = rep.all_pass
    detail = "; ".join(f"{v.name}={'PASS' if v.passed else 'FAIL'}" for v in rep.verdicts)
    _verdict(7, "vanishing-viscosity-cauchy", ok, detail)


def test_criterion_08_sup_norm_smoothing():
    base = RunConfig(dim=1, box_halfwidth=6.0, cells=1024, chi=1.0, eps=0.0, t_end=0.5,
                     diag_stride=200, ic="spike", ic_pnorm=1.0,
                     spike_widths=(0.8, 0.4, 0.2), ic_p=4.0)
    rep = smoothing_study(base)
    ok = rep.all_pass
    detail = "; ".join(v.detail for v in rep.verdicts)
    _verdict(8, "sup-norm-smoothing", ok, detail)


def test_criterion_09_moment_growth():
    fitted = {}
    for n in (400, 800):
        grid = make_grid(1, 8.0, n)
        bump = gaussian_bump(grid, 1.0, mass=1.0)
        traj, = run([bump], [Params(chi=1.0)], StepControls(), [2.0], diag_stride=50)
        m0 = traj.records[0].second_moment
        fitted[n] = max(np.log(r.second_moment / m0) / r.time
                        for r in traj.records if r.time > 0.0)
    rel = abs(fitted[800] - fitted[400]) / max(fitted.values())
    ok = fitted[400] > 0.0 and rel <= 0.10
    _verdict(9, "moment-growth", ok,
             f"fitted C at h {fitted[400]:.4f}, at h/2 {fitted[800]:.4f}, "
             f"relative change {rel:.3%}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dim = 1\nbox_halfwidth = 5.0\ncells = 200\nchi = 1.0\neps = 0.0\n"
        "t_end = 0.01\ndiag_stride = 5\nic = gaussian\nic_width = 1.0\n"
        "ic_mass = 1.0\n"
    )
    # the child needs src on its own path: pytest's pythonpath setting reaches only this process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "fluxlim.cli", "simulate", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    same_csv = (outs[0] / "diagnostics.csv").read_bytes() == (outs[1] / "diagnostics.csv").read_bytes()
    same_snap = (outs[0] / "snapshot_final.txt").read_bytes() == (outs[1] / "snapshot_final.txt").read_bytes()
    _verdict(10, "determinism", same_csv and same_snap,
             f"csv identical {same_csv}, final snapshot identical {same_snap}")
