"""Pointwise flux-limited diffusion coefficient and its monotonicity probes.

The flux is (1 - chi*rho/|grad|)_+ * grad plus an optional viscous part
eps*grad. The 2D stepper assembles it face by face from ``limiter`` (see
``stepping._coefficient_fluxes``), and the dissipation terms of
``diagnostics.pair_terms`` use it too. In 1D the flux equals sign(grad) *
(|grad| - chi*rho)_+, which ``stepping._face_flux`` evaluates without the
division.
The positive part kills the flux wherever
|grad| <= chi*rho, which is what makes the underlying vector map monotone;
removing the clamp breaks monotonicity, and ``unclamped_gap`` exists only to
demonstrate that.

Conventions: the coefficient is exactly 0.0 (bitwise) on the clamped set,
including |grad| = 0, so degenerate regions freeze and vacuum stays vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Params",
    "limiter",
    "monotone_gap",
    "unclamped_gap",
]


@dataclass(frozen=True)
class Params:
    """Physical and regularization constants.

    chi is the sensitivity in the limiter threshold; eps the viscosity of the
    regularized equation. chi = 0 is allowed as a pure-heat control mode
    (the limiter is then identically 1 away from flat faces).
    """

    chi: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.chi) and self.chi >= 0.0):
            raise ValueError(f"invalid value for 'chi': must be finite and >= 0, got {self.chi}")
        if not (np.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"invalid value for 'eps': must be finite and >= 0, got {self.eps}")


def limiter(rho, grad_norm, chi, out=None):
    """Diffusion coefficient (1 - chi*rho/grad_norm)_+ in [0, 1].

    Returns exactly 0.0 wherever grad_norm <= chi*rho (including
    grad_norm = 0), and a value < 1 whenever rho > 0.
    Accepts scalars or broadcastable arrays (``chi`` too); ``out``, when
    given, receives the result.

    The quotient is taken everywhere and clamped by ``fmax``: where
    grad_norm > chi*rho it is below 1, so 1 - q is the unclamped value;
    elsewhere it is >= 1, +inf or NaN (0/0), and fmax gives exactly 0.0.
    """
    g = np.asarray(grad_norm, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(rho), g.shape, np.shape(chi)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(np.multiply(chi, rho, out=out), g, out=out)
    np.subtract(1.0, out, out=out)
    np.fmax(out, 0.0, out=out)
    return float(out) if out.ndim == 0 else out


def _clamped_map(v: np.ndarray, c: float) -> np.ndarray:
    return limiter(c, np.linalg.norm(v, axis=-1, keepdims=True), 1.0) * v


def _unclamped_map(v: np.ndarray, c: float) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    coeff = np.where(n > 0.0, 1.0 - c / safe, 0.0)
    return coeff * v


def _pairing(w, z, c: float, flux_map):
    wv = np.atleast_2d(np.asarray(w, dtype=float))
    zv = np.atleast_2d(np.asarray(z, dtype=float))
    gap = np.sum((flux_map(wv, c) - flux_map(zv, c)) * (wv - zv), axis=-1)
    return float(gap[0]) if np.asarray(w, dtype=float).ndim <= 1 else gap


def monotone_gap(w, z, c: float):
    """[F(w) - F(z)] . (w - z) for the clamped map F(v) = (1 - c/|v|)_+ v.

    Mathematically >= 0 for every pair; F(0) = 0 by the limiter convention.
    Inputs carry vector components along the last axis; batches broadcast.
    """
    return _pairing(w, z, c, _clamped_map)


def unclamped_gap(w, z, c: float):
    """Same pairing for the non-clamped map (1 - c/|v|) v; can be negative.

    Counterexample: c = 1, w = (0.5, 0), z = (-0.25, 0) gives -0.9375.
    Kept out of the solver; only the monotonicity study calls it.
    """
    return _pairing(w, z, c, _unclamped_map)
