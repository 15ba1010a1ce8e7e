"""Initial-condition constructors: bumps, normalized spikes, uniform fields."""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, integrate, squared_distance

__all__ = ["gaussian_bump", "poly_spike", "uniform_field"]


def gaussian_bump(grid: Grid, width: float, center=None, mass: float | None = None,
                  amplitude: float | None = None) -> Field:
    """Gaussian exp(-r^2 / (2 width^2)), strictly positive on the whole box.

    Exactly one of ``mass`` (discrete integral) or ``amplitude`` fixes the
    scale; ``mass`` is matched by discrete rescaling, which needs a discrete
    integral that is positive and finite (the bump must not underflow to 0
    on every cell center).
    """
    if not (width > 0.0 and width * width > 0.0):
        raise ValueError(f"width must be positive, with a square that does not underflow, got {width!r}")
    if (mass is None) == (amplitude is None):
        raise ValueError("give exactly one of mass or amplitude")
    center = np.zeros(grid.dim) if center is None else center
    vals = np.exp(-squared_distance(grid, center) / (2.0 * width * width))
    if amplitude is not None:
        return Field.density(grid, amplitude * vals)
    total = integrate(Field.density(grid, vals))
    if not 0.0 < total < np.inf:
        raise ValueError(f"the Gaussian's discrete integral is {total}; widen it or shrink the box")
    return Field.density(grid, vals * (mass / total))


def poly_spike(grid: Grid, width: float, p: float, center=None, p_norm: float = 1.0) -> Field:
    """Compactly supported bump (1 - (r/width)^2)_+^2 normalized in Lp.

    The support is exact, so no box-truncation bias enters the
    normalization: the discrete Lp norm equals ``p_norm`` to roundoff.
    """
    if not (width > 0.0 and width * width > 0.0):
        raise ValueError(f"width must be positive, with a square that does not underflow, got {width!r}")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    center = np.zeros(grid.dim) if center is None else center
    with np.errstate(over="ignore"):  # a tiny width's quotient overflows to inf, outside the support
        z = 1.0 - squared_distance(grid, center) / (width * width)
    vals = np.where(z > 0.0, z, 0.0) ** 2
    norm = float(np.sum(vals**p) * grid.cell_volume) ** (1.0 / p)
    if norm <= 0.0:
        raise ValueError("spike support contains no cell centers; widen it or refine the grid")
    return Field.density(grid, vals * (p_norm / norm))


def uniform_field(grid: Grid, value: float) -> Field:
    """Constant field; handy for mass-law and fixed-point checks."""
    if value < 0.0:
        raise ValueError("value must be nonnegative")
    return Field.density(grid, np.full(grid.shape, float(value)))
