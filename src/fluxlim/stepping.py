"""Time advancement of the viscous flux-limited diffusion equation.

Two steppers share one spatial discretization:

  * ``step_explicit``: forward Euler under the diffusive CFL restriction.
    The face coefficients lie in [0, 1 + eps], so each update is a convex
    combination plus an absorption factor; positivity and the Lp decay of
    the continuous flow carry over exactly.
  * ``step_semi_implicit``: backward Euler with the nonlinear coefficient
    frozen at the previous Picard iterate (both the density and the gradient
    slot), so every inner problem is a constant-coefficient SPD system
    solved by conjugate gradients. No step-size restriction.

The explicit kernel (``march``) steps a batch of members on one grid at
once, each with its own chi, eps, dt and step count; ``run`` and
``step_explicit`` are its one-member callers. The boundary is the no-flux
box of the grid module; the absorption term -eps*rho makes the total mass
follow the product law prod(1 - eps*dt_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .diagnostics import DiagnosticsRecord, record
from .grid import Field, Grid, along
from .limiter import Params, limiter

__all__ = [
    "StepControls",
    "Trajectory",
    "CflViolationError",
    "NumericalFailureError",
    "PicardDivergenceError",
    "cfl_dt",
    "step_explicit",
    "step_semi_implicit",
    "march",
    "time_mesh",
    "run",
    "run_batch",
]


class CflViolationError(ValueError):
    """Explicit step attempted with dt above the stability ceiling."""


class NumericalFailureError(RuntimeError):
    """A step produced non-finite or impossibly negative values."""


class PicardDivergenceError(RuntimeError):
    """Frozen-coefficient iteration failed to reach tolerance."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class StepControls:
    """Scheme controls; ``dt = None`` lets ``run`` pick the CFL step."""

    dt: float | None = None
    cfl_safety: float = 0.45
    picard_tol: float = 1e-10
    picard_max_iter: int = 200
    linear_solver_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not (self.picard_tol > 0.0 and self.linear_solver_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots plus the diagnostics table of one run."""

    snapshots: tuple[tuple[float, Field], ...]
    records: tuple[DiagnosticsRecord, ...]

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]


def cfl_dt(grid: Grid, eps: float, safety: float = 0.45) -> float:
    """Explicit stability ceiling safety * h_min^2 / (2 d (1 + eps)).

    The face coefficients never exceed 1 + eps, so the constant-coefficient
    heat bound dominates every admissible state.
    """
    if not (0.0 < safety <= 1.0):
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    h_min = min(grid.spacing)
    return safety * h_min * h_min / (2.0 * grid.dim * (1.0 + eps))


def time_mesh(t_end: float, dt_req: float) -> tuple[float, int]:
    """Step and step count hitting ``t_end`` exactly: ``dt_req`` shrunk to a divisor."""
    n_steps = max(1, math.ceil(t_end / dt_req - 1e-9))
    return t_end / n_steps, n_steps


@lru_cache(maxsize=None)
def _stencil(grid: Grid) -> tuple[tuple[int, tuple, tuple, float], ...]:
    """Per space axis of arrays with a leading member axis: the array axis, the
    slices of the cells below and above each interior face, and the spacing."""
    n = grid.dim + 1
    return tuple((a, along(n, a, slice(None, -1)), along(n, a, slice(1, None)), grid.spacing[a - 1])
                 for a in range(1, n))


class _Workspace:
    """Work buffers of one member batch: a cell-sized scratch array, whose
    prefix doubles as the per-axis face densities, plus per axis a face-norm
    and a coefficient array."""

    def __init__(self, grid: Grid, size: int):
        self.stencil = _stencil(grid)
        self.cells = np.empty((size, *grid.shape))
        shapes = [self.cells[lo].shape for _, lo, _, _ in self.stencil]
        flat, norm = self.cells.reshape(-1), np.empty(max(math.prod(s) for s in shapes))
        self.rho = [flat[: math.prod(s)].reshape(s) for s in shapes]
        self.norm = [norm[: math.prod(s)].reshape(s) for s in shapes]
        self.coef = [np.empty(s) for s in shapes]


def _central_gradient(values: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Cell-centered derivative along one array axis, operation for operation
    ``np.gradient(values, h, axis=axis, edge_order=2)``, written into ``out``."""
    at = partial(along, values.ndim, axis)
    inner = out[at(slice(1, -1))]
    np.subtract(values[at(slice(2, None))], values[at(slice(None, -2))], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    out[at(0)] = (-1.5 / h) * values[at(0)] + (2.0 / h) * values[at(1)] + (-0.5 / h) * values[at(2)]
    out[at(-1)] = (0.5 / h) * values[at(-3)] + (-2.0 / h) * values[at(-2)] + (1.5 / h) * values[at(-1)]
    return out


def _face_coefficients(values: np.ndarray, ws: _Workspace, chi, eps) -> list[np.ndarray]:
    """Limiter-plus-viscosity coefficient per interior face, one array per axis.

    ``values`` holds the members along its leading axis; ``chi`` and ``eps``
    are scalars or per-member columns. The limiter sees the face-mean density
    and the norm of the full reconstructed gradient (normal and tangential
    parts, see ``grid.face_gradient``).
    """
    stencil = ws.stencil
    for (axis, lo, hi, h), norm, rho, coef in zip(stencil, ws.norm, ws.rho, ws.coef):
        np.subtract(values[hi], values[lo], out=norm)
        np.divide(norm, h, out=norm)
        np.multiply(norm, norm, out=norm)
        for other, _, _, h_other in stencil:
            if other != axis:
                tang = _central_gradient(values, other, h_other, ws.cells)
                np.add(tang[lo], tang[hi], out=coef)
                np.multiply(coef, 0.5, out=coef)
                np.multiply(coef, coef, out=coef)
                np.add(norm, coef, out=norm)
        np.sqrt(norm, out=norm)
        np.add(values[lo], values[hi], out=rho)
        np.multiply(rho, 0.5, out=rho)
        np.add(limiter(rho, norm, chi, out=coef), eps, out=coef)
    return ws.coef


def _div_coeff_grad(values: np.ndarray, ws: _Workspace, coeffs: list[np.ndarray],
                    out: np.ndarray) -> np.ndarray:
    """div(a * grad u) per member with normal two-point face gradients and zero
    boundary flux, written into ``out``."""
    out.fill(0.0)
    for (_, lo, hi, h), flux, coef in zip(ws.stencil, ws.norm, coeffs):
        np.subtract(values[hi], values[lo], out=flux)
        np.divide(flux, h, out=flux)
        np.multiply(coef, flux, out=flux)
        np.divide(flux, h, out=flux)
        np.add(out[lo], flux, out=out[lo])
        np.subtract(out[hi], flux, out=out[hi])
    return out


def _finalize(values: np.ndarray, neg_tol: float, step: int | None = None, members=None) -> np.ndarray:
    """Check the raw output of a step, one member per leading row.

    Non-finite values, and negative values beyond ``neg_tol`` times the
    member's sup norm, raise ``NumericalFailureError`` naming the member and
    step. Roundoff-level negatives are clamped to 0 in their own row of a
    copy, which is returned; clean output is returned as it is.
    """
    if values.min() >= 0.0 and values.max() < math.inf:
        return values
    values = values.copy()
    for row, vals in enumerate(values):
        where = f"member {row if members is None else members[row]}" + (f", step {step}" if step else "")
        lowest, highest = float(vals.min()), float(vals.max())
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise NumericalFailureError(f"non-finite value produced by a time step ({where})")
        floor = -neg_tol * max(highest, -lowest, 1e-300)
        if lowest < floor:
            raise NumericalFailureError(
                f"negative density {lowest} beyond the roundoff floor {floor} ({where})"
            )
        if lowest < 0.0:
            np.maximum(vals, 0.0, out=vals)
    return values


def march(initials, params, dts, n_steps, cfl_safety: float = 0.45, members=None):
    """Advance member runs on one grid as one forward-Euler batch.

    Member i takes ``n_steps[i]`` steps of ``dts[i]`` with ``params[i]``
    (one update rho + dt*div((a+eps) grad rho) - dt*eps*rho per step); members
    must come in non-increasing ``n_steps`` order. Yields ``(k, state)``
    after every step k, where ``state`` stacks the members still running,
    which are always a prefix; it is a work buffer that the next step
    overwrites. Every step is checked for finiteness and negativity, and a
    dt above any member's CFL ceiling raises ``CflViolationError`` up front;
    errors name members by ``members`` (default: their positions).
    """
    if any(b > a for a, b in zip(n_steps, n_steps[1:])):
        raise ValueError("members must come in non-increasing n_steps order")
    grid = initials[0].grid
    members = range(len(initials)) if members is None else members
    for name, p, dt in zip(members, params, dts):
        ceiling = cfl_dt(grid, p.eps, cfl_safety)
        if dt > ceiling * (1.0 + 1e-9):
            raise CflViolationError(f"dt = {dt} exceeds the CFL ceiling {ceiling} (member {name})")
    col = (-1,) + (1,) * grid.dim
    chi, eps, dt = (np.array(x, dtype=float).reshape(col)
                    for x in ([p.chi for p in params], [p.eps for p in params], dts))
    dt_eps, absorbs = dt * eps, bool(np.any(eps))
    state = np.stack([f.values for f in initials])
    k = 0
    for live in range(len(n_steps), 0, -1):
        if n_steps[live - 1] == k:
            continue
        ws = _Workspace(grid, live)
        cur, nxt = state[:live], np.empty_like(state[:live])
        c, e, d, de = chi[:live], eps[:live], dt[:live], dt_eps[:live]
        while k < n_steps[live - 1]:
            k += 1
            coeffs = _face_coefficients(cur, ws, c, e)
            _div_coeff_grad(cur, ws, coeffs, nxt)
            # (rho + dt*div) - (dt*eps)*rho in this order, so every member is
            # bitwise a lone run; with all eps = 0 the last term is +0.0, a no-op
            np.multiply(d, nxt, out=nxt)
            np.add(cur, nxt, out=nxt)
            if absorbs:
                np.subtract(nxt, np.multiply(de, cur, out=ws.cells), out=nxt)
            cur, nxt = _finalize(nxt, 1e-13, k, members), cur
            yield k, cur
        state = cur


def step_explicit(field: Field, params: Params, controls: StepControls) -> Field:
    """One forward-Euler step of rho' = rho + dt*div((a+eps) grad rho) - dt*eps*rho."""
    if controls.dt is None:
        raise ValueError("step_explicit needs controls.dt")
    ((_, state),) = march([field], [params], [controls.dt], [1], controls.cfl_safety)
    return Field.density(field.grid, state[0])


def step_semi_implicit(field: Field, params: Params, controls: StepControls, with_info: bool = False):
    """One backward-Euler step via frozen-coefficient Picard iteration.

    Each pass freezes the limiter coefficient at the previous iterate
    (density and gradient slots alike) and solves the SPD system
    (1 + eps*dt) u - dt*div(a grad u) = rho by conjugate gradients to
    ``linear_solver_tol``. Convergence is measured by the fixed-point
    residual |T(z) - z| / |T(z)| in L2. Updates are relaxed,
    z + theta (T(z) - z), and a candidate is only accepted once its residual
    drops below the current one, halving theta otherwise (down to 1/64).
    The backtracking guards against threshold flicker (faces hopping across
    the limiter cutoff between sweeps) at large dt; it never moves the fixed
    point, and theta stays at 1 whenever plain iteration contracts.

    Returns the converged field, plus the residual trace if ``with_info``.
    """
    if controls.dt is None:
        raise ValueError("step_semi_implicit needs controls.dt")
    dt = controls.dt
    grid = field.grid
    shape = grid.shape
    n_tot = int(np.prod(shape))
    rhs = field.values.ravel().copy()
    ws = _Workspace(grid, 1)

    def picard_map(z: np.ndarray) -> tuple[np.ndarray, float]:
        coeffs = _face_coefficients(z[None], ws, params.chi, params.eps)

        def matvec(u: np.ndarray) -> np.ndarray:
            uu = u.reshape(shape)
            div = _div_coeff_grad(uu[None], ws, coeffs, ws.cells)[0]
            return ((1.0 + params.eps * dt) * uu - dt * div).ravel()

        op = LinearOperator((n_tot, n_tot), matvec=matvec, dtype=float)
        sol, info = cg(op, rhs, x0=z.ravel(), rtol=controls.linear_solver_tol, atol=0.0)
        if info != 0:
            raise NumericalFailureError(f"inner CG solve did not converge (info = {info})")
        if not np.isfinite(sol).all():
            raise NumericalFailureError("non-finite value produced by the implicit solve")
        mapped = sol.reshape(shape)
        denom = max(float(np.linalg.norm(mapped)), 1e-300)
        return mapped, float(np.linalg.norm(mapped - z)) / denom

    z = field.values
    mapped, residual = picard_map(z)
    trace = [residual]
    theta = 1.0
    for _ in range(controls.picard_max_iter):
        if residual <= controls.picard_tol:
            mapped = _finalize(mapped[None], neg_tol=max(1e-13, 1e3 * controls.linear_solver_tol))[0]
            out = Field.density(grid, mapped)
            return (out, trace) if with_info else out
        theta = min(1.0, 1.5 * theta)  # remember the working relaxation level
        while True:
            cand = z + theta * (mapped - z)
            cand_mapped, cand_residual = picard_map(cand)
            if cand_residual < residual or theta <= 1.0 / 64.0:
                break
            theta *= 0.5
        z, mapped, residual = cand, cand_mapped, cand_residual
        trace.append(residual)

    raise PicardDivergenceError(
        f"Picard iteration exceeded {controls.picard_max_iter} sweeps "
        f"(last fixed-point residual {residual})",
        last_residual=residual,
    )


def run(
    initial: Field,
    params: Params,
    controls: StepControls,
    t_end: float,
    diag_stride: int = 10,
    p_set=(2.0, 4.0),
    grad_p_set=(2.0,),
    scheme: str = "explicit",
    snapshot_stride: int = 0,
) -> Trajectory:
    """Advance to ``t_end`` with a fixed step, recording diagnostics.

    The requested dt (or the CFL step when unset) is shrunk to the nearest
    divisor of ``t_end`` so the final time is hit exactly. Diagnostics are
    recorded at t = 0, every ``diag_stride`` steps, and at the final step;
    snapshots keep the initial and final states plus every
    ``snapshot_stride``-th step when that stride is positive. The run is
    deterministic given its inputs.
    """
    return run_batch([initial], [params], controls, [t_end], diag_stride, p_set=p_set,
                     grad_p_set=grad_p_set, scheme=scheme, snapshot_stride=snapshot_stride)[0]


def run_batch(initials, params, controls: StepControls, t_ends, diag_stride=10, p_set=(2.0, 4.0),
              grad_p_set=(2.0,), scheme: str = "explicit", snapshot_stride: int = 0) -> list[Trajectory]:
    """``run`` for several members on one grid, one trajectory per member.

    Member i starts from ``initials[i]`` with ``params[i]`` and runs to
    ``t_ends[i]``; ``diag_stride`` is one stride or one per member. Each
    member gets the time mesh and outputs its own ``run`` would give; the
    explicit scheme steps all members as one batch (see ``march``), the
    semi-implicit one steps them in turn.
    """
    initials, t_ends = list(initials), [float(t) for t in t_ends]
    strides = list(diag_stride) if np.ndim(diag_stride) else [diag_stride] * len(initials)
    if not (len(initials) == len(params) == len(t_ends) == len(strides) > 0):
        raise ValueError("run_batch needs one params, t_end and diag_stride per member")
    if min(t_ends) < 0.0:
        raise ValueError(f"t_end must be >= 0, got {min(t_ends)}")
    if min(strides) < 1:
        raise ValueError("diag_stride must be >= 1")
    if scheme not in ("explicit", "semi_implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = initials[0].grid
    if any(f.grid != grid for f in initials):
        raise ValueError("run_batch members must share one grid")
    if any(f.values.min(initial=0.0) < 0.0 for f in initials):
        raise ValueError("initial data must be nonnegative")

    records = [[record(f, p_set=p_set, grad_p_set=grad_p_set, time=0.0)] for f in initials]
    snapshots = [[(0.0, f)] for f in initials]
    meshes = [time_mesh(t, controls.dt or cfl_dt(grid, p.eps, controls.cfl_safety)) if t > 0.0
              else (0.0, 0) for p, t in zip(params, t_ends)]
    dts, ns = [dt for dt, _ in meshes], [n for _, n in meshes]

    def observe(i: int, k: int, values) -> None:
        last = k == ns[i]
        diag = last or k % strides[i] == 0
        snap = last or (snapshot_stride > 0 and k % snapshot_stride == 0)
        if diag or snap:
            field = values if isinstance(values, Field) else Field.density(grid, values)
            t = t_ends[i] if last else k * dts[i]
            if diag:
                records[i].append(record(field, p_set=p_set, grad_p_set=grad_p_set, time=t))
            if snap:
                snapshots[i].append((t, field))

    order = [i for i in sorted(range(len(ns)), key=lambda i: -ns[i]) if ns[i] > 0]
    if scheme == "explicit" and order:
        batch = [[seq[i] for i in order] for seq in (initials, params, dts, ns)]
        for k, state in march(*batch, controls.cfl_safety, members=order):
            for i, values in zip(order, state):
                observe(i, k, values)
    else:
        for i in order:
            field, eff = initials[i], replace(controls, dt=dts[i])
            for k in range(1, ns[i] + 1):
                field = step_semi_implicit(field, params[i], eff)
                observe(i, k, field)
    return [Trajectory(snapshots=tuple(s), records=tuple(r)) for s, r in zip(snapshots, records)]
