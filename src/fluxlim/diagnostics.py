"""Tracked functionals: mass, Lp norms, moments, entropy, Fisher information,
relative entropy, and the entropy-dissipation integrands for solution pairs.

Vacuum conventions used throughout: rho*log(rho) = 0 and |grad rho|^2/rho = 0
wherever rho = 0, and the limiter coefficient is taken as 0 on vacuum cells.
Diagnostic gradients are cell-centered central differences (second order),
distinct from the face differences driving the fluxes.

A ``record`` is one row of the diagnostics CSV, whose columns are the constant
``COLUMNS``: the exponents are fixed, L1, L2 and L4 and the gradient's L2.

The pair functionals H, D1, D2 and the L1 distance come from one array
kernel, ``pair_terms``, that probes a block of K pairs (K, 2, *grid.shape) per
call and reduces over the grid axes only, so each row is bitwise its
single-pair value. The contraction study probes its recorded states in such
blocks, the viscosity study its final states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, central_gradient, gradient_norm, integrate, radius_squared
from .limiter import limiter

__all__ = [
    "DiagnosticsRecord",
    "SupportMismatchError",
    "record",
    "pair_terms",
    "l1_distance",
    "COLUMNS",
    "csv_row",
]


# The diagnostics CSV header, one column per field of DiagnosticsRecord
COLUMNS = ("time", "mass", "l1", "l2", "lp_4", "sup", "moment2", "entropy", "entropy_abs", "fisher", "gradlp_2")


class SupportMismatchError(ValueError):
    """Raised when a sigma = 0 relative entropy meets u > 0 on {v = 0}."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of every tracked functional, its fields in the order of ``COLUMNS``."""

    time: float
    mass: float
    l1: float
    l2: float
    l4: float
    sup_norm: float
    second_moment: float
    entropy: float
    entropy_abs: float
    fisher: float
    grad_l2: float


def record(field: Field, time: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every tracked functional of a nonnegative field."""
    v, vol = field.values, field.grid.cell_volume
    if v.min(initial=0.0) < 0.0:
        raise ValueError("diagnostics expect a nonnegative field")

    def lp(x: np.ndarray, p: float) -> float:
        return float(np.sum(x**p) * vol) ** (1.0 / p)

    mass = integrate(field)  # also the L1 norm of a nonnegative field
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

    return DiagnosticsRecord(
        time=float(time),
        mass=mass,
        l1=mass,
        l2=lp(v, 2.0),
        l4=lp(v, 4.0),
        sup_norm=float(v.max(initial=0.0)),
        second_moment=moment2,
        entropy=entropy,
        entropy_abs=entropy_abs,
        fisher=fisher,
        grad_l2=lp(gn, 2.0),
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


def csv_row(rec: DiagnosticsRecord) -> str:
    """The record as a line of ``COLUMNS``, in full-precision decimals."""
    return ",".join(map(repr, vars(rec).values()))
