"""Explicit stationary profiles and checks of the eikonal characterization.

Stationary states satisfy |grad rho| = chi * rho: the flux coefficient
vanishes exactly on such profiles, so they are fixed points of the dynamics.
Three families are provided: a single exponential peak, a one-dimensional
maximum of peaks, and a separable product profile for d = 2.

A discrete curiosity worth knowing: sampling an exponential peak on any
uniform 1D grid gives face difference quotients strictly below the threshold
(tanh(u) < u), so the sampled 1D profiles are exact fixed points of the
solver; in 2D the tangential part of the face gradient leaves them O(h)-stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import l1_distance
from .grid import Field, Grid, gradient_norm, integrate, squared_distance
from .limiter import Params
from .stepping import StepControls, run

__all__ = ["SteadyProfileSpec", "sample", "eikonal_residual", "stationarity_drift"]

_KINDS = ("single_peak", "multi_peak", "factorized")


@dataclass(frozen=True)
class SteadyProfileSpec:
    """Recipe for a stationary profile.

    ``peaks`` is a tuple of (amplitude, center) pairs; centers are scalars in
    1D and length-d tuples otherwise. ``target_mass`` rescales the sampled
    amplitude so the discrete integral matches exactly.
    """

    kind: str
    chi: float
    peaks: tuple
    target_mass: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (np.isfinite(self.chi) and self.chi > 0.0):
            raise ValueError(f"chi must be positive, got {self.chi}")
        if len(self.peaks) < 1:
            raise ValueError("at least one (amplitude, center) peak is required")
        for amp, _ in self.peaks:
            if not (np.isfinite(amp) and amp > 0.0):
                raise ValueError(f"peak amplitudes must be positive, got {amp}")
        if self.target_mass is not None and not self.target_mass > 0.0:
            raise ValueError("target_mass must be positive when set")


def _center_coords(center, grid: Grid) -> np.ndarray:
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


def sample(spec: SteadyProfileSpec, grid: Grid) -> Field:
    """Sample the profile at cell centers, rescaling to ``target_mass`` if set."""
    if spec.kind == "multi_peak":
        if grid.dim != 1:
            raise ValueError("multi_peak profiles are one-dimensional")
        x = grid.axis_centers(0)
        stack = [amp * np.exp(-spec.chi * np.abs(x - _center_coords(c, grid)[0]))
                 for amp, c in spec.peaks]
        vals = np.max(np.stack(stack), axis=0)
    elif spec.kind == "single_peak":
        if len(spec.peaks) != 1:
            raise ValueError("single_peak takes exactly one peak")
        amp, c = spec.peaks[0]
        r2 = squared_distance(grid, _center_coords(c, grid))
        vals = amp * np.exp(-spec.chi * np.sqrt(r2))
    else:  # factorized
        if len(spec.peaks) != 1:
            raise ValueError("factorized takes exactly one peak")
        amp, c = spec.peaks[0]
        cc = _center_coords(c, grid)
        rate = spec.chi / np.sqrt(grid.dim)
        s = np.zeros(grid.shape)
        for k, ax in enumerate(grid.centers()):
            s = s + np.abs(ax - cc[k])
        vals = amp * np.exp(-rate * s)

    field = Field.density(grid, vals)
    if spec.target_mass is not None:
        mass = integrate(field)
        if mass <= 0.0:
            raise ValueError("sampled profile has zero discrete mass")
        field = Field.density(grid, vals * (spec.target_mass / mass))
    return field


def eikonal_residual(field: Field, chi: float) -> Field:
    """Cellwise | |grad rho| - chi*rho | with centered gradients.

    Vanishes to second order in h on the smooth regions of the analytic
    profiles; kink cells and constants show an O(1) residual.
    """
    if field.values.min(initial=0.0) < 0.0:
        raise ValueError("eikonal residual expects a nonnegative field")
    return Field(field.grid, np.abs(gradient_norm(field) - chi * field.values))


def stationarity_drift(field: Field, params: Params, controls: StepControls, t_probe: float,
                       scheme: str = "explicit") -> float:
    """L1 distance travelled per unit time when evolving from the field by ``scheme``.

    Requires eps = 0 (steady states are fixed points only of the inviscid
    flow). Exactly zero for every discretely sub-critical profile.
    """
    if params.eps != 0.0:
        raise ValueError("stationarity drift is defined for eps = 0")
    if t_probe <= 0.0:
        raise ValueError("t_probe must be positive")
    traj, = run([field], [params], controls, [t_probe], diag_stride=10**9, scheme=scheme)
    return l1_distance(traj.final, field) / t_probe
