"""Tracked functionals: mass, Lp norms, moments, entropy, Fisher information,
relative entropy, and the entropy-dissipation integrands for solution pairs.

Vacuum conventions used throughout: rho*log(rho) = 0 and |grad rho|^2/rho = 0
wherever rho = 0, and the limiter coefficient is taken as 0 on vacuum cells.
Diagnostic gradients are cell-centered central differences (second order),
distinct from the face differences driving the fluxes.

The pair functionals H, D1, D2 and the L1 distance come from one array
kernel, ``pair_terms``, that probes a block of K pairs (K, 2, *grid.shape) per
call and reduces over the grid axes only, so each row is bitwise its
single-pair value. The contraction study probes its recorded states in such
blocks, the viscosity study its final states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, central_gradient, gradient_norm, radius_squared
from .limiter import limiter

__all__ = [
    "DiagnosticsRecord",
    "SupportMismatchError",
    "record",
    "pair_terms",
    "l1_distance",
    "csv_header",
    "csv_row",
]


class SupportMismatchError(ValueError):
    """Raised when a sigma = 0 relative entropy meets u > 0 on {v = 0}."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of every tracked functional."""

    time: float
    mass: float
    lp_norms: dict[float, float]
    sup_norm: float
    second_moment: float
    entropy: float
    entropy_abs: float
    fisher: float
    grad_lp: dict[float, float]


def record(field: Field, p_set=(2.0, 4.0), grad_p_set=(2.0,), time: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every tracked functional of a nonnegative field.

    ``p_set`` extends the always-present exponents {1, 2}; ``grad_p_set``
    selects the gradient norms to report.
    """
    v = field.values
    vol = field.grid.cell_volume
    if v.min(initial=0.0) < 0.0:
        raise ValueError("diagnostics expect a nonnegative field")

    mass = float(np.sum(v) * vol)
    ps = sorted({1.0, 2.0} | {float(p) for p in p_set})
    lp = {p: float(np.sum(v**p) * vol) ** (1.0 / p) for p in ps}
    sup = float(v.max(initial=0.0))
    moment2 = float(np.sum(v * (1.0 + radius_squared(field.grid))) * vol)

    pos = v > 0.0
    logv = np.zeros_like(v)
    np.log(v, out=logv, where=pos)
    entropy = float(np.sum(v * logv) * vol)
    entropy_abs = float(np.sum(v * np.abs(logv)) * vol)

    gn = gradient_norm(field)
    fisher_cells = np.zeros_like(v)
    np.divide(gn * gn, v, out=fisher_cells, where=pos)
    fisher = float(np.sum(fisher_cells) * vol)

    glp = {float(p): float(np.sum(gn ** float(p)) * vol) ** (1.0 / float(p)) for p in sorted(grad_p_set)}
    return DiagnosticsRecord(
        time=float(time),
        mass=mass,
        lp_norms=lp,
        sup_norm=sup,
        second_moment=moment2,
        entropy=entropy,
        entropy_abs=entropy_abs,
        fisher=fisher,
        grad_lp=glp,
    )


def pair_terms(pairs: np.ndarray, grid: Grid, sigma: float, chi: float):
    """(H, D1, D2, L1 distance) of every row (u, v) of ``pairs``, shaped (K, 2,
    *grid.shape), as length-K arrays.

    H = integral((u+s)*log((u+s)/(v+s)) - u + v) is the relative entropy with
    floor s = ``sigma``; with sigma = 0 it uses the 0*log(0) = 0 convention, and
    a row with u > 0 where v = 0 raises ``SupportMismatchError``. The dissipation
    integrals are

    D1 = 1/2 * integral( u * (a_u - a_v)^2 )
    D2 = 1/2 * integral( u * |grad log(u/v)|^2 * (a_u + a_v) )

    with a_w = limiter(w, |grad w|) on {w > 0} and 0 on vacuum cells; the
    log-gradient of each field is likewise taken as 0 where it vanishes.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    axes = tuple(range(1, a.ndim))
    vol = grid.cell_volume
    if sigma == 0.0:
        if np.any((a > 0.0) & (b == 0.0)):
            raise SupportMismatchError("u > 0 on a cell where v = 0 with sigma = 0")
        ratio = np.ones_like(a)  # a * log(1) = 0 keeps the 0*log(0) = 0 convention
        np.divide(a, b, out=ratio, where=a > 0.0)
        h = np.sum(a * np.log(ratio) - a + b, axis=axes) * vol
    else:
        h = np.sum((a + sigma) * np.log((a + sigma) / (b + sigma)) - a + b, axis=axes) * vol

    grads = [central_gradient(pairs, k + 2, grid.h) for k in range(grid.dim)]
    live = pairs > 0.0
    coef = np.where(live, limiter(pairs, np.sqrt(sum(g * g for g in grads)), chi), 0.0)
    d1 = 0.5 * (np.sum(a * (coef[:, 0] - coef[:, 1]) ** 2, axis=axes) * vol)
    dlog2 = 0.0
    for g in grads:
        logs = np.zeros_like(pairs)
        np.divide(g, pairs, out=logs, where=live)
        dlog2 = dlog2 + (logs[:, 0] - logs[:, 1]) ** 2
    d2 = 0.5 * (np.sum(a * dlog2 * (coef[:, 0] + coef[:, 1]), axis=axes) * vol)
    return h, d1, d2, np.sum(np.abs(a - b), axis=axes) * vol


def l1_distance(u: Field, v: Field) -> float:
    """Integral of |u - v| over the box."""
    if u.grid != v.grid:
        raise ValueError("l1 distance needs both fields on one grid")
    return float(np.sum(np.abs(u.values - v.values)) * u.grid.cell_volume)


def _fmt_p(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else repr(float(p))


def csv_header(p_set=(2.0, 4.0), grad_p_set=(2.0,)) -> str:
    extra = sorted({float(p) for p in p_set} - {1.0, 2.0})
    cols = ["time", "mass", "l1", "l2"]
    cols += [f"lp_{_fmt_p(p)}" for p in extra]
    cols += ["sup", "moment2", "entropy", "entropy_abs", "fisher"]
    cols += [f"gradlp_{_fmt_p(p)}" for p in sorted(grad_p_set)]
    return ",".join(cols)


def csv_row(rec: DiagnosticsRecord) -> str:
    extra = sorted(set(rec.lp_norms) - {1.0, 2.0})
    vals = [rec.time, rec.mass, rec.lp_norms[1.0], rec.lp_norms[2.0]]
    vals += [rec.lp_norms[p] for p in extra]
    vals += [rec.sup_norm, rec.second_moment, rec.entropy, rec.entropy_abs, rec.fisher]
    vals += [rec.grad_lp[p] for p in sorted(rec.grad_lp)]
    return ",".join(repr(float(x)) for x in vals)
