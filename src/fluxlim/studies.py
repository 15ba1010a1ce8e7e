"""Experiment harnesses: viscosity sweep, entropy contraction, sup-norm
smoothing, the stationary-profile check, and the randomized monotonicity probe.

Each study returns a ``StudyReport`` carrying a result table, named
verdicts, and enough inputs to reproduce the run. Reports render to a
human-readable text block (with grep-stable ``VERDICT <name> PASS|FAIL``
lines) and to CSV; both renderings are byte-deterministic for a fixed
configuration (and, for the monotonicity probe, seed). Input checks raise
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from .config import STATIONARY_KINDS, RunConfig, _center, build_controls, build_problem, check_cell_steps
from .diagnostics import l1_distance, pair_terms
from .grid import Field, gradient_norm, integrate
from .limiter import Params, monotone_gap, unclamped_gap
from .profiles import poly_spike
from .stepping import cfl_dt, march, run, time_mesh

__all__ = [
    "Verdict",
    "StudyReport",
    "viscosity_study",
    "contraction_study",
    "smoothing_study",
    "steady_study",
    "monotonicity_test",
]


# The keys the contraction study reads from its first config alone, which the second must repeat
_SHARED_CONTRACTION_KEYS = ("dt", "t_end", "diag_stride", "sigma_rel", "picard_tol")
# Bytes of recorded states per contraction probe: 16 pairs of 400 cells, one pair of 57^2 or more
_PROBE_BLOCK_BYTES = 100 * 2**10
# Allowed rise per time step of the relative entropy, relative to H(0), and of the
# L1 distance, relative to the summed masses
_H_SLACK_PER_STEP = 1e-8
_L1_SLACK_PER_STEP = 1e-13
# Dimensions and thresholds the monotonicity probe samples, and its most samples per
# combination: 100x the CLI default, about 0.5 GB per sampled array pair in 3D
_MONOTONE_DIMS = (1, 2, 3)
_MONOTONE_C = (0.1, 1.0, 10.0)
_MAX_SAMPLES = 10**7
# Most viscosities of one sweep: the pair table grows with the square of their number
_MAX_EPS_LIST = 100


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class StudyReport:
    """Inputs, result table, and pass/fail verdicts of one study."""

    kind: str
    inputs: list[tuple[str, str]]
    columns: tuple[str, ...]
    rows: list[tuple]
    verdicts: list[Verdict]
    notes: list[str]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_text(self) -> str:
        lines = [f"study {self.kind}"]
        lines += [f"input {k} = {v}" for k, v in self.inputs]
        lines.append("columns " + ",".join(self.columns))
        lines += ["row " + ",".join(map(str, row)) for row in self.rows]
        lines += [f"note {n}" for n in self.notes]
        for v in self.verdicts:
            lines.append(f"VERDICT {v.name} {'PASS' if v.passed else 'FAIL'} ({v.detail})")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = [",".join(self.columns)]
        out += [",".join(map(str, row)) for row in self.rows]
        return "\n".join(out) + "\n"


def _fmt_list(xs) -> str:
    return " ".join(repr(float(x)) for x in xs)


def _sigma_for(cfg: RunConfig, reference: Field) -> float:
    """Relative-entropy floor guarding vacuum cells: sigma_rel * sup(reference)."""
    sigma = cfg.sigma_rel * float(reference.values.max(initial=0.0))
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def viscosity_study(base: RunConfig) -> StudyReport:
    """Run one initial condition across the decreasing viscosity list
    ``eps_list`` and measure how fast the solutions become a Cauchy family.

    Reports the L1 distance and relative entropy of every pair at the final
    time and fits H(T) against eps + delta (affine least squares, plus the
    through-origin slope); the sweep runs as one batch. Verdicts: both pair
    metrics strictly decrease along consecutive pairs; the affine fit has
    positive slope and an intercept at most 10% of the largest H.
    """
    eps_list = tuple(float(e) for e in base.eps_list)
    n = len(eps_list)
    if not 2 <= n <= _MAX_EPS_LIST:
        raise ValueError(f"invalid value for 'eps_list': needs at least two entries and at most "
                         f"{_MAX_EPS_LIST} ({_MAX_EPS_LIST * (_MAX_EPS_LIST - 1) // 2} pairs), got {n}")
    if any(not (np.isfinite(e) and e >= 0.0) for e in eps_list):
        raise ValueError("viscosities must be finite and >= 0")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing (no duplicates)")

    grid, initial, first = build_problem(base)
    controls = build_controls(base)
    dt = controls.dt if controls.dt is not None else cfl_dt(grid, max(eps_list))
    if not dt > 0.0:
        raise ValueError(f"the CFL step for eps = {max(eps_list)!r} underflows to 0")
    check_cell_steps(initial.values.size, base.t_end, dt, runs=n)
    shared = replace(controls, dt=dt)

    trajectories = run([initial] * n, [Params(base.chi, e) for e in eps_list], shared,
                       [base.t_end] * n, base.diag_stride, p_set=base.p_set,
                       grad_p_set=base.grad_p_set, initial_records=[first] * n)
    finals = [t.final for t in trajectories]

    # the pairs (i, j) of one j share the floor sigma_j, so each j is one probe block
    terms = {}
    for j in range(1, n):
        block = np.stack([np.stack([f.values, finals[j].values]) for f in finals[:j]])
        h, _, _, l1 = pair_terms(block, grid, _sigma_for(base, finals[j]), base.chi)
        terms.update(((i, j), (float(l1[i]), float(h[i]))) for i in range(j))
    rows = [(eps_list[i], eps_list[j], eps_list[i] + eps_list[j], *terms[i, j])
            for i, j in combinations(range(n), 2)]

    # fit over the consecutive pairs: mixing all pairs would put several
    # widely different eps gaps at the same eps sum
    consecutive_l1, consecutive_h = zip(*(terms[i, i + 1] for i in range(n - 1)))
    s = np.add(eps_list[:-1], eps_list[1:])
    hv = np.asarray(consecutive_h)
    slope, intercept = (float(c) for c in np.polyfit(s, hv, 1))
    origin_slope = float(np.dot(s, hv) / np.dot(s, s))
    h_max = float(hv.max())

    l1_mono = all(b < a for a, b in zip(consecutive_l1, consecutive_l1[1:]))
    h_mono = all(b < a for a, b in zip(consecutive_h, consecutive_h[1:]))
    verdicts = [
        Verdict("viscosity_l1_decreasing", l1_mono,
                f"consecutive-pair L1 distances {_fmt_list(consecutive_l1)}"),
        Verdict("viscosity_H_decreasing", h_mono,
                f"consecutive-pair relative entropies {_fmt_list(consecutive_h)}"),
        Verdict("viscosity_fit_slope_positive", slope > 0.0, f"affine slope {slope!r}"),
        Verdict("viscosity_fit_intercept_small", intercept <= 0.1 * h_max,
                f"intercept {intercept!r} vs 10% of max pair H {0.1 * h_max!r}"),
    ]
    return StudyReport(
        kind="viscosity",
        inputs=[("eps_list", _fmt_list(eps_list)), ("t_end", repr(base.t_end)),
                ("dt", repr(dt)), ("cells", str(base.cells)), ("chi", repr(base.chi))],
        columns=("eps_a", "eps_b", "eps_sum", "l1", "H"),
        rows=rows,
        verdicts=verdicts,
        notes=[f"fit H = {slope!r} * (eps+delta) + {intercept!r}",
               f"through-origin slope {origin_slope!r}"],
    )


def contraction_study(cfg1: RunConfig, cfg2: RunConfig) -> StudyReport:
    """Advance two inviscid runs on one time mesh, as one batch of their shared scheme, and
    track the relative entropy between them together with its two dissipation integrals.
    The two configs must also agree on the keys of ``_SHARED_CONTRACTION_KEYS``.

    Verdicts: H never increases by more than ``_H_SLACK_PER_STEP * H(0)`` per
    time step; both dissipation terms stay nonnegative; in 1D, the L1
    distance (in the report, not the table) never increases by more than
    ``_L1_SLACK_PER_STEP`` of the two masses per step, the discrete L1
    contraction of a monotone scheme; and if the two initial fields
    coincide, H stays below 1e-12 throughout. The 2D step is not monotone,
    so there the L1 distance's worst rise is a note, not a verdict.
    """
    if cfg1.eps != 0.0 or cfg2.eps != 0.0:
        raise ValueError("contraction study requires eps = 0 in both runs")
    for key in _SHARED_CONTRACTION_KEYS:
        first, second = getattr(cfg1, key), getattr(cfg2, key)
        if first != second:
            raise ValueError(f"invalid value for '{key}': the contraction study runs both configs with "
                             f"one {key}, but they set {first!r} and {second!r}")
    grid1, u, _ = build_problem(cfg1)
    grid2, v, _ = build_problem(cfg2)
    if grid1 != grid2 or cfg1.scheme != cfg2.scheme:
        raise ValueError("contraction study requires a shared grid and scheme")
    if u.values.min() <= 0.0 or v.values.min() <= 0.0:
        raise ValueError("contraction study requires strictly positive initial data")

    controls = build_controls(cfg1)
    t_end = cfg1.t_end
    dt, n_steps = time_mesh(t_end, controls.dt or cfl_dt(grid1, 0.0))
    check_cell_steps(u.values.size, t_end, dt, runs=2)
    params1 = Params(cfg1.chi, cfg1.eps)
    params2 = Params(cfg2.chi, cfg2.eps)
    stride = cfg1.diag_stride
    sigma = _sigma_for(cfg1, v)
    identical = bool(np.array_equal(u.values, v.values))

    # the initial and every recorded state go into a block, probed when it fills
    block = np.empty((max(1, _PROBE_BLOCK_BYTES // (2 * u.values.nbytes)), 2, *grid1.shape))
    times, rows, steps_between, l1 = [], [], [], []
    last_recorded = 0
    for k, state in chain([(0, (u.values, v.values))],
                          march([u, v], [params1, params2], [dt, dt], [n_steps] * 2, controls)):
        if k % stride == 0 or k == n_steps:
            block[len(times)] = state
            times.append(t_end if k == n_steps else k * dt)
            steps_between.append(k - last_recorded)
            last_recorded = k
            if len(times) == len(block) or k == n_steps:
                *terms, dist = pair_terms(block[:len(times)], grid1, sigma, cfg1.chi)
                rows += zip(times, *(x.tolist() for x in terms))
                l1 += dist.tolist()
                times = []

    h_all = [r[1] for r in rows]
    h0 = h_all[0]
    slack, l1_slack = _H_SLACK_PER_STEP * h0, _L1_SLACK_PER_STEP * (integrate(u) + integrate(v))
    worst, worst_l1 = _worst_rise(h_all, slack, steps_between), _worst_rise(l1, l1_slack, steps_between)
    l1_detail = f"worst rise beyond slack {worst_l1!r} with slack/step {l1_slack!r}"
    d_ok = all(r[2] >= 0.0 and r[3] >= 0.0 for r in rows)

    verdicts = [
        Verdict("contraction_H_nonincreasing", worst <= 0.0,
                f"worst rise beyond slack {worst!r} with slack/step {slack!r}"),
        Verdict("contraction_dissipation_nonneg", d_ok,
                f"min D1 {min(r[2] for r in rows)!r} min D2 {min(r[3] for r in rows)!r}"),
    ]
    notes = [f"H(0) = {h0!r}"]
    if grid1.dim == 1:
        verdicts.append(Verdict("contraction_L1_nonincreasing", worst_l1 <= 0.0, l1_detail))
    else:
        notes.append(f"L1 distance, no verdict (the 2D step is not order-preserving): {l1_detail}")
    if identical:
        verdicts.append(Verdict("contraction_identity", max(h_all) <= 1e-12,
                                f"max H {max(h_all)!r} for identical data"))
    return StudyReport(
        kind="contraction",
        inputs=[("t_end", repr(t_end)), ("dt", repr(dt)), ("steps", str(n_steps)),
                ("sigma", repr(sigma)), ("chi", repr(cfg1.chi)),
                ("identical_data", str(identical))],
        columns=("time", "H", "D1", "D2"),
        rows=rows,
        verdicts=verdicts,
        notes=notes,
    )


def _worst_rise(series, slack: float, steps_between) -> float:
    """Largest rise between consecutive recorded values beyond ``slack`` per
    step in between, or 0.0 if none exceeds it."""
    return max([0.0] + [b - a - slack * n for a, b, n in zip(series, series[1:], steps_between[1:])])


def _envelope(records, p_norm: float, exponent: float) -> float:
    best = 0.0
    for rec in records:
        if rec.time <= 0.0:
            continue
        best = max(best, rec.sup_norm / (p_norm * (1.0 + rec.time**-exponent)))
    return best


def smoothing_study(cfg: RunConfig) -> StudyReport:
    """Probe the sup-norm smoothing bound on an Lp-normalized spike family.

    Each spike (widths ``spike_widths``, all centred at ``ic_center`` with equal Lp norm
    ``ic_pnorm`` for p = ``ic_p``; the config's ``ic`` must be ``spike``, and an ``ic_width``
    other than the default is rejected) runs inviscid; the envelope constant
    C_hat = max_t sup(t) / (|rho_in|_p (1 + t^{-d/2p})) must be stable
    (within a factor 2) across the family, t over a CFL-step run's record times.
    A second envelope with the alternative exponent (d+2)/(2p) is reported without a verdict.
    The pure-diffusion control (limiter pinned to 1 by chi = 0) reruns the
    family to width-matched probe times t = w^2, where the sup values follow
    the classical power law; the fitted log-log slope must land within 10%
    of -d/(2p). Both families run as one batch, each member to its own horizon.
    """
    p, widths = float(cfg.ic_p), tuple(float(w) for w in cfg.spike_widths)
    if len(widths) < 2:
        raise ValueError("need at least two spike widths")
    if any(w2 >= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("spike widths must be strictly decreasing")
    if cfg.eps != 0.0:
        raise ValueError("smoothing study runs with eps = 0")
    if not cfg.t_end > 0.0:
        raise ValueError("invalid value for 't_end': the smoothing study needs t_end > 0")
    if cfg.ic != "spike":
        raise ValueError("invalid value for 'ic': the smoothing study runs a spike family, ic = spike")
    if cfg.ic_width != RunConfig.ic_width:
        raise ValueError("invalid value for 'ic_width': the smoothing study's spikes take the widths "
                         "of 'spike_widths'")

    grid, spike, _ = build_problem(cfg)
    d = grid.dim
    exp_main = d / (2.0 * p)
    exp_alt = (d + 2.0) / (2.0 * p)
    controls = build_controls(cfg)
    ceiling = cfl_dt(grid, 0.0)
    dt = controls.dt if controls.dt is not None else ceiling
    shared = replace(controls, dt=dt)
    stride = max(1, round(cfg.diag_stride * ceiling / dt))  # C_hat is read at a CFL-step run's times
    n = len(widths)
    t_ends = [cfg.t_end] * n + [w * w for w in widths]
    check_cell_steps(spike.values.size, sum(t_ends) / (2 * n), dt, runs=2 * n)  # the 2n members, one budget

    spikes = [poly_spike(grid, w, p, center=_center(cfg), p_norm=cfg.ic_pnorm) for w in widths]
    trajectories = run(spikes * 2, [Params(cfg.chi)] * n + [Params(0.0)] * n, shared, t_ends,
                       [stride] * n + [10**9] * n, p_set=cfg.p_set, grad_p_set=cfg.grad_p_set)
    limited = trajectories[:n]
    heat = [traj.records[-1] for traj in trajectories[n:]]

    rows = []
    c_main = []
    c_alt = []
    for w, traj in zip(widths, limited):
        cm = _envelope(traj.records, cfg.ic_pnorm, exp_main)
        ca = _envelope(traj.records, cfg.ic_pnorm, exp_alt)
        c_main.append(cm)
        c_alt.append(ca)
        for rec in traj.records:
            rows.append(("limited", w, rec.time, rec.sup_norm))
    for w, rec in zip(widths, heat):
        rows.append(("heat", w, rec.time, rec.sup_norm))

    ratio = max(c_main) / min(c_main)
    log_t = np.log([w * w for w in widths])
    log_s = np.log([rec.sup_norm for rec in heat])
    heat_slope = float(np.polyfit(log_t, log_s, 1)[0])
    slope_err = abs(heat_slope - (-exp_main)) / exp_main

    verdicts = [
        Verdict("smoothing_envelope_stable", ratio <= 2.0,
                f"C_hat per width {_fmt_list(c_main)} spread factor {ratio!r}"),
        Verdict("smoothing_heat_slope", slope_err <= 0.10,
                f"fitted slope {heat_slope!r} target {-exp_main!r} relative error {slope_err!r}"),
    ]
    return StudyReport(
        kind="smoothing",
        inputs=[("p", repr(p)), ("widths", _fmt_list(widths)), ("t_end", repr(cfg.t_end)),
                ("dt", repr(dt)), ("chi", repr(cfg.chi)), ("cells", str(cfg.cells))],
        columns=("phase", "width", "time", "sup"),
        rows=rows,
        verdicts=verdicts,
        notes=[f"envelope exponent {exp_main!r} alternative {exp_alt!r}",
               f"alternative-envelope constants {_fmt_list(c_alt)}"],
    )


def steady_study(cfg: RunConfig) -> StudyReport:
    """Check that a sampled stationary profile stays put: L1 drift per unit time to
    min(t_end, 0.05) at most chi*mass*h (or 1e-14), and |grad rho|/rho within
    chi (1 + (chi h)^2) above 1e-8 of the sup; the eikonal residual is reported."""
    if cfg.ic not in STATIONARY_KINDS:
        raise ValueError("invalid value for 'ic': steady check needs a stationary profile kind")
    if cfg.eps != 0.0:
        raise ValueError("invalid value for 'eps': steady check runs inviscid")
    grid, field, _ = build_problem(cfg)
    h = max(grid.spacing)
    log_bound = cfg.chi * (1.0 + (cfg.chi * h) * (cfg.chi * h))
    if not np.isfinite(log_bound):
        raise ValueError(f"invalid value for 'chi': the bound chi (1 + (chi h)^2) on |grad rho|/rho "
                         f"overflows (chi = {cfg.chi!r}, h = {h!r})")
    mass = integrate(field)
    grad = gradient_norm(field)
    resid = np.abs(grad - cfg.chi * field.values)  # the eikonal residual | |grad rho| - chi rho |
    t_probe = min(cfg.t_end, 0.05) if cfg.t_end > 0 else 0.05
    traj, = run([field], [Params(cfg.chi, cfg.eps)], build_controls(cfg), [t_probe], diag_stride=10**9)
    drift = l1_distance(traj.final, field) / t_probe

    sup = float(field.values.max())
    live = field.values > 1e-8 * sup
    grad_over_rho = np.zeros_like(field.values)
    np.divide(grad, field.values, out=grad_over_rho, where=live)
    worst_log_grad = float(grad_over_rho.max(initial=0.0))
    allowance = max(cfg.chi * mass * h, 1e-14)

    verdicts = [
        Verdict("steady_drift_small", drift <= allowance,
                f"drift per unit time {drift!r} allowance {allowance!r}"),
        Verdict("steady_subcharacterization", worst_log_grad <= log_bound,
                f"max |grad rho|/rho {worst_log_grad!r} bound {log_bound!r}"),
    ]
    return StudyReport(
        kind="steady_check",
        inputs=[("ic", cfg.ic), ("chi", repr(cfg.chi)), ("cells", str(cfg.cells)),
                ("mass", repr(mass))],
        columns=("quantity", "value"),
        rows=[("drift_rate", drift), ("residual_max", float(resid.max())),
              ("residual_median", float(np.median(resid))), ("mass", mass)],
        verdicts=verdicts,
        notes=[],
    )


def monotonicity_test(samples: int = 100_000, seed: int = 0) -> StudyReport:
    """Seeded sampling oracle for the flux-map pairing inequality.

    For every (dimension, threshold) combination the clamped map must give a
    nonnegative pairing against w - z (up to 1e-12 roundoff); the same
    sampling through the non-clamped map must exhibit a clearly negative
    gap, demonstrating that the positive part is what buys monotonicity.
    """
    if not 1 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must lie in [1, {_MAX_SAMPLES}], got {samples}")
    rng = np.random.default_rng(seed)
    rows = []
    worst_clamped = np.inf
    worst_unclamped = np.inf
    for c in _MONOTONE_C:
        for d in _MONOTONE_DIMS:
            w = rng.uniform(-10.0, 10.0, size=(samples, d))
            z = rng.uniform(-10.0, 10.0, size=(samples, d))
            g_c = float(np.min(monotone_gap(w, z, c)))
            g_u = float(np.min(unclamped_gap(w, z, c)))
            worst_clamped = min(worst_clamped, g_c)
            worst_unclamped = min(worst_unclamped, g_u)
            rows.append((int(d), float(c), g_c, g_u))
    verdicts = [
        Verdict("monotone_min_gap", worst_clamped >= -1e-12,
                f"min clamped gap {worst_clamped!r}"),
        Verdict("unclamped_negative", worst_unclamped < -1e-6,
                f"min non-clamped gap {worst_unclamped!r}"),
    ]
    return StudyReport(
        kind="monotonicity",
        inputs=[("samples", str(samples)), ("dims", " ".join(str(d) for d in _MONOTONE_DIMS)),
                ("c_list", _fmt_list(_MONOTONE_C)), ("seed", str(seed))],
        columns=("dim", "c", "min_gap_clamped", "min_gap_unclamped"),
        rows=rows,
        verdicts=verdicts,
        notes=[],
    )
