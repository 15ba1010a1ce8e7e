"""Initial-condition constructors: Gaussian bumps, normalized spikes and the
stationary exponential peaks.

Stationary states satisfy |grad rho| = chi * rho: the flux coefficient
vanishes exactly on such profiles, so they are fixed points of the dynamics.
Three families are provided: a single exponential peak, a one-dimensional
maximum of peaks, and a separable product profile. Each peak's kink is
snapped to the nearest cell center.

A discrete curiosity worth knowing: sampling an exponential peak on any
uniform 1D grid gives face difference quotients strictly below the threshold
(tanh(u) < u), so the sampled 1D profiles are exact fixed points of the
solver; in 2D the tangential part of the face gradient leaves them O(h)-stationary.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, integrate, squared_distance

__all__ = ["gaussian_bump", "poly_spike", "single_peak", "multi_peak", "factorized"]


def _to_mass(grid: Grid, vals: np.ndarray, mass: float | None) -> Field:
    """The density ``vals``, rescaled so its discrete integral is ``mass`` when that is set."""
    if mass is None:
        return Field.density(grid, vals)
    total = integrate(Field.density(grid, vals))
    if not 0.0 < total < np.inf:
        raise ValueError(f"the profile's discrete integral is {total}; widen it or shrink the box")
    return Field.density(grid, vals * (mass / total))


def _snapped(grid: Grid, center) -> np.ndarray:
    """The cell center nearest to ``center`` along each axis, so the kink sits on a cell."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (grid.dim,):
        raise ValueError(f"peak center {center!r} does not match grid dimension {grid.dim}")
    snapped = np.empty(grid.dim)
    for k in range(grid.dim):
        h, o, n = grid.spacing[k], grid.origin[k], grid.shape[k]
        idx = int(np.clip(np.round((c[k] - o) / h - 0.5), 0, n - 1))
        snapped[k] = o + (idx + 0.5) * h
    return snapped


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
    return _to_mass(grid, vals if amplitude is None else amplitude * vals, mass)


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


def single_peak(grid: Grid, chi: float, center, amplitude: float = 1.0,
                mass: float | None = None) -> Field:
    """Radial peak amplitude * exp(-chi |x - center|), rescaled to ``mass`` when that is set."""
    r2 = squared_distance(grid, _snapped(grid, center))
    return _to_mass(grid, amplitude * np.exp(-chi * np.sqrt(r2)), mass)


def multi_peak(grid: Grid, chi: float, centers, amplitudes, mass: float | None = None) -> Field:
    """The 1D maximum of the peaks a_i * exp(-chi |x - c_i|), rescaled to ``mass`` when set."""
    x = grid.axis_centers(0)
    stack = [amp * np.exp(-chi * np.abs(x - _snapped(grid, c)[0]))
             for amp, c in zip(amplitudes, centers)]
    return _to_mass(grid, np.max(np.stack(stack), axis=0), mass)


def factorized(grid: Grid, chi: float, center, amplitude: float = 1.0,
               mass: float | None = None) -> Field:
    """Product peak amplitude * exp(-(chi/sqrt(d)) sum_k |x_k - center_k|), whose log-gradient
    has modulus chi off the axes; rescaled to ``mass`` when that is set."""
    cc = _snapped(grid, center)
    rate = chi / np.sqrt(grid.dim)
    s = np.zeros(grid.shape)
    for k, ax in enumerate(grid.centers()):
        s = s + np.abs(ax - cc[k])
    return _to_mass(grid, amplitude * np.exp(-rate * s), mass)
