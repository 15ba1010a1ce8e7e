"""Time advancement of the viscous flux-limited diffusion equation.

One spatial discretization: in 1D the face flux in excess form,
sign(D) (|D|/h - chi rho_face)_+ + eps D/h for the cell difference D
(``_face_flux``); in 2D a limiter coefficient per face, from the cell difference
and sum across the face, times the normal difference quotient
(``_coefficient_fluxes``). Both come scaled by the spacing, in the buffers of
``_buffers``, whose zero-padded face arrays make the divergence one subtraction
per axis (``_divergence``).

  * ``march``: forward Euler under the diffusive CFL restriction, for a batch
    of members on one grid at once, each with its own chi, eps, dt and step
    count; ``run`` steps through it. The effective face coefficients lie in
    [0, 1 + eps], so each update is a convex combination plus an absorption
    factor; positivity and the Lp decay of the continuous flow carry over exactly.
  * ``step_semi_implicit``: backward Euler in 1D by sweeps that linearize
    the flux at the previous iterate on the active set (positive excess) and
    gradient sign of ``_face_flux`` (semi-smooth Newton), each solved exactly
    by LAPACK, in about two sweeps. No step-size restriction. scipy is
    imported by this step alone, so explicit runs never load it.

The boundary is the no-flux box of the grid module; the absorption term
-eps*rho makes the total mass follow the product law prod(1 - eps*dt_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsRecord, record
from .grid import Field, Grid, along, central_gradient
from .limiter import Params, limiter

__all__ = ["StepControls", "Trajectory", "CflViolationError", "NumericalFailureError",
           "PicardDivergenceError", "cfl_dt", "step_semi_implicit", "march",
           "time_mesh", "run"]


_NEG_TOL = 1e-13  # roundoff allowance of a step's negatives, relative to the member's sup norm


class CflViolationError(ValueError):
    """Explicit step attempted with dt above the stability ceiling."""


class NumericalFailureError(RuntimeError):
    """A step produced non-finite or impossibly negative values; ``run``
    sets ``step`` and ``time`` of a failing semi-implicit step, which end the message."""

    step: int | None = None
    time: float | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.step is None else f"{text} at step {self.step}, t = {self.time!r}"


class PicardDivergenceError(NumericalFailureError):
    """The semi-implicit sweeps failed to reach tolerance; ``trace``
    holds the fixed-point residual of every accepted sweep."""

    def __init__(self, message: str, last_residual: float, trace=()):
        super().__init__(message)
        self.last_residual = last_residual
        self.trace = tuple(trace)


@dataclass(frozen=True)
class StepControls:
    """Scheme controls; ``dt = None`` lets ``run`` pick the CFL step."""

    dt: float | None = None
    cfl_safety: float = 0.45
    picard_tol: float = 1e-10
    picard_max_iter: int = 200

    def __post_init__(self) -> None:
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not self.picard_tol > 0.0:
            raise ValueError("picard_tol must be positive")
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


def _buffers(grid: Grid, size: int) -> list[tuple[np.ndarray, ...]]:
    """Work buffers of a batch of ``size`` members, per space axis: a cell-sized scratch
    array, two face-sized arrays, the axis's flux, and the fluxes through every cell's
    upper and lower face. The last two are cell-sized views, one cell apart along the
    axis, of one zero-padded array; the flux is the interior of the upper one, and the
    rest reads the boundary faces' zero flux. The axes share the buffers, so an axis's
    fluxes must be used before the next axis's are built."""
    cells = np.empty((size, *grid.shape))
    stride = [math.prod(grid.shape[a:]) for a in range(1, grid.dim + 1)]  # one cell along each axis
    store = np.zeros(stride[0] + cells.size)
    upper = store[stride[0]:].reshape(cells.shape)
    faces = np.empty((2, max(cells[lo].size for _, lo, _, _ in _stencil(grid))))
    bufs = []
    for (_, lo, _, _), step in zip(_stencil(grid), stride):
        shape, lower = upper[lo].shape, store[stride[0] - step:][: cells.size].reshape(cells.shape)
        bufs.append((cells, *(f[: math.prod(shape)].reshape(shape) for f in faces), upper[lo], upper, lower))
    return bufs


def _coefficient_fluxes(values: np.ndarray, stencil, half_chi_h, eps, bufs):
    """Yield the (upper, lower) face fluxes (see ``_buffers``) of every 2D axis in turn,
    h_0^2/h times the flux ((1 - chi rho_face/|g|)_+ + eps) g_normal, h_0 the first spacing.

    With D and P the difference and the sum of the two cells of a face, D is h g_normal
    and h times the tangential part of g (the face mean of the two adjacent central
    differences) is, by linearity, T = ``central_gradient(P, other, 2 h_other/h)``. So
    N = sqrt(T^2 + D^2) is h |g| and the flux is (``limiter(P, N, chi h/2)`` + eps) D.
    ``half_chi_h`` (chi h/2 per axis) and ``eps`` (None: no viscous term) are scalars or
    per-member columns. T, N and D^2 use face-shaped views of the cell scratch and of the
    upper fluxes, whose boundary faces are reset to 0 afterwards."""
    h_0 = stencil[0][3]
    for (axis, lo, hi, h), (cells, diff, pair, flux, upper, lower), rate in zip(stencil, bufs, half_chi_h):
        (other, h_other), = ((o, ho) for o, _, _, ho in stencil if o != axis)
        norm, square = (a.reshape(-1)[: diff.size].reshape(diff.shape) for a in (cells, upper))
        np.subtract(values[hi], values[lo], out=diff)
        np.add(values[lo], values[hi], out=pair)
        central_gradient(pair, other, 2.0 * h_other / h, out=norm)
        np.multiply(norm, norm, out=norm)
        np.add(norm, np.multiply(diff, diff, out=square), out=norm)
        np.sqrt(norm, out=norm)
        limiter(pair, norm, rate, out=pair)
        if eps is not None:
            np.add(pair, eps, out=pair)
        np.multiply(pair, diff, out=flux)
        if h != h_0:
            np.multiply(flux, (h_0 / h) ** 2, out=flux)
        upper[along(upper.ndim, axis, -1)] = 0.0
        yield upper, lower


def _face_flux(values: np.ndarray, half_chi_h, eps, out) -> np.ndarray:
    """h times the 1D face flux of every member row, in excess form.

    For the cell difference D and g = D/h, h ((1 - chi rho_face/|g|)_+ + eps) g
    = sign(D) (|D| - chi h rho_face)_+ + eps D, which needs no square, root or
    division. ``half_chi_h`` (chi h/2) and ``eps`` (None: no viscous term) are
    scalars or per-member columns. ``out`` opens with the (cells, D, excess, flux) of
    the one axis of ``_buffers``; D and the clamped excess (positive on the
    limiter's active set) stay in theirs. The threshold is summed from scaled cells, so it overflows
    only where it exceeds every finite |D|; the clamp passes NaN on to ``_finalize``.
    """
    cells, diff, excess, flux = out[:4]
    np.multiply(values, half_chi_h, out=cells)
    np.add(cells[..., :-1], cells[..., 1:], out=flux)
    np.subtract(values[..., 1:], values[..., :-1], out=diff)
    np.abs(diff, out=excess)
    np.subtract(excess, flux, out=excess)
    np.maximum(excess, 0.0, out=excess)
    if eps is None:
        return np.copysign(excess, diff, out=flux)
    # sign(D) excess + eps D, rounded as sign(D) (excess + eps |D|)
    np.multiply(np.abs(diff, out=flux), eps, out=flux)
    return np.copysign(np.add(excess, flux, out=flux), diff, out=flux)


def _divergence(fluxes, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-axis (upper, lower) face fluxes of the cells, taken one axis at a time, summed
    into ``out`` by one subtraction per axis (into the cell-sized ``scratch`` after the first)."""
    for k, (upper, lower) in enumerate(fluxes):
        np.subtract(upper, lower, out=scratch if k else out)
        if k:
            np.add(out, scratch, out=out)
    return out


def _finalize(values: np.ndarray, step: int | None = None, members=None) -> np.ndarray:
    """Check the raw output of a step, one member per leading row.

    Non-finite values, and negative values beyond ``_NEG_TOL`` times the
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
        floor = -_NEG_TOL * max(highest, -lowest, 1e-300)
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
    # the fluxes come h_0^2/h times too large (see _face_flux and _coefficient_fluxes), so
    # their divergence is scaled by dt/h_0^2, h_0 the first axis's spacing
    h = grid.spacing[0]
    rates, scale = [0.5 * s * chi for s in grid.spacing], dt / (h * h)
    state, stencil = np.stack([f.values for f in initials]), _stencil(grid)
    k = 0
    for live in range(len(n_steps), 0, -1):
        if n_steps[live - 1] == k:
            continue
        bufs = _buffers(grid, live)
        cur, nxt = state[:live], np.empty_like(state[:live])
        c, e = [r[:live] for r in rates], eps[:live] if absorbs else None
        d, de = scale[:live], dt_eps[:live]
        if grid.dim == 1:
            def fluxes(v):
                _face_flux(v, c[0], e, bufs[0])
                return (bufs[0][4:],)
        else:
            fluxes = lambda v: _coefficient_fluxes(v, stencil, c, e, bufs)
        while k < n_steps[live - 1]:
            k += 1
            _divergence(fluxes(cur), nxt, bufs[0][0])
            # (rho + dt*div) - (dt*eps)*rho in this order, so every member is
            # bitwise a lone run; with all eps = 0 the last term is +0.0, a no-op
            np.multiply(d, nxt, out=nxt)
            np.add(cur, nxt, out=nxt)
            if absorbs:
                np.subtract(nxt, np.multiply(de, cur, out=bufs[0][0]), out=nxt)
            cur, nxt = _finalize(nxt, k, members), cur
            yield k, cur
        state = cur


def _active_set_solve(excess, diff, rhs, chi: float, eps: float, dt: float, h: float) -> np.ndarray:
    """Exact solve of the 1D backward-Euler system with the flux linearized at a state z.

    ``excess`` and ``diff`` are what ``_face_flux`` leaves for z. On the active
    set, where the excess is positive, the face flux is (1 + eps) g - chi s rho_face
    with s = sign(diff), elsewhere eps g.
    With c = eps + [active], d = chi s [active] and P, Q = dt/h (+-c/h - d/2)
    per face, (1 + eps*dt) u - dt*div F(u) = rhs is tridiagonal: diagonal
    1 + eps*dt - Q_{i+1/2} + P_{i-1/2}, super-diagonal -P, sub-diagonal Q;
    LAPACK ``dgtsv`` solves it.
    """
    from scipy.linalg.lapack import dgtsv

    on = excess > 0.0
    c, half_d = eps + on, np.where(on, 0.5 * chi * np.sign(diff), 0.0)
    p, q = (c / h - half_d) * (dt / h), (-c / h - half_d) * (dt / h)
    diag = np.full(rhs.shape, 1.0 + eps * dt)
    diag[:-1] -= q
    diag[1:] += p
    *_, sol, info = dgtsv(q, diag, -p, rhs, overwrite_d=True)
    if info != 0:
        raise NumericalFailureError(f"tridiagonal solve failed (LAPACK dgtsv info = {info})")
    return sol


def step_semi_implicit(field: Field, params: Params, controls: StepControls, with_info: bool = False):
    """One backward-Euler step (1 + eps*dt) u - dt*div F(u) = rho by sweeps, 1D only.

    Each sweep T linearizes the flux at the previous iterate, freezing the
    limiter's active set and gradient sign, and solves exactly (a semi-smooth
    Newton step, see ``_active_set_solve``). Fixed points of T solve the step.
    Convergence is measured by the fixed-point residual |T(z) - z| / |T(z)| in L2.
    Updates are relaxed, z + theta (T(z) - z), and a candidate is only accepted once
    its residual drops below the current one, halving theta otherwise (down to 1/64).
    The backtracking guards against threshold flicker (faces hopping across the
    limiter cutoff between sweeps) at large dt; it never moves the fixed point, and
    theta stays at 1 whenever plain iteration contracts.

    Returns the converged field, plus the residual trace if ``with_info``.
    """
    if controls.dt is None:
        raise ValueError("step_semi_implicit needs controls.dt")
    grid = field.grid
    if grid.dim != 1:
        raise ValueError(f"the semi-implicit scheme is 1D only, got a {grid.dim}D field")
    dt, rhs, h = controls.dt, field.values, grid.spacing[0]
    bufs = [b[0] for b in _buffers(grid, 1)[0]]  # one member, without the member axis

    def sweep(z: np.ndarray) -> tuple[np.ndarray, float]:
        _face_flux(z, 0.5 * h * params.chi, None, bufs)
        sol = _active_set_solve(bufs[2], bufs[1], rhs, params.chi, params.eps, dt, h)
        if not np.isfinite(sol).all():
            raise NumericalFailureError("non-finite value produced by the implicit solve")
        denom = max(float(np.linalg.norm(sol)), 1e-300)
        return sol, float(np.linalg.norm(sol - z)) / denom

    z = field.values
    mapped, residual = sweep(z)
    trace = [residual]
    theta = 1.0
    for _ in range(controls.picard_max_iter):
        if residual <= controls.picard_tol:
            # the exact solve of an M-matrix leaves no solver-tolerance negatives
            out = Field.density(grid, _finalize(mapped[None])[0])
            return (out, trace) if with_info else out
        theta = min(1.0, 1.5 * theta)  # remember the working relaxation level
        while True:
            cand = z + theta * (mapped - z)
            cand_mapped, cand_residual = sweep(cand)
            if cand_residual < residual or theta <= 1.0 / 64.0:
                break
            theta *= 0.5
        z, mapped, residual = cand, cand_mapped, cand_residual
        trace.append(residual)

    raise PicardDivergenceError(f"Picard iteration exceeded {controls.picard_max_iter} sweeps "
                                f"(last fixed-point residual {residual})", residual, trace)


def run(initials, params, controls: StepControls, t_ends, diag_stride=10, p_set=(2.0, 4.0),
        grad_p_set=(2.0,), scheme: str = "explicit", snapshot_stride: int = 0,
        initial_records=None) -> list[Trajectory]:
    """Advance members on one grid to their ``t_ends`` with fixed steps, recording
    diagnostics; one trajectory per member, whose outputs do not depend on the others.

    Member i starts from ``initials[i]`` with ``params[i]``; ``diag_stride`` is
    one stride or one per member. The requested dt (or the member's CFL step when
    unset) is shrunk to the nearest divisor of its t_end, so that time is hit
    exactly. Diagnostics are recorded at t = 0, every ``diag_stride`` steps, and
    at the final step; snapshots keep the initial and final states plus every
    ``snapshot_stride``-th step when that stride is positive. The explicit scheme
    steps all members as one batch (see ``march``), the semi-implicit one (1D
    only) steps them in turn. ``initial_records``, when given, are the members'
    t = 0 records, which are then not computed again. Deterministic given its inputs.
    """
    initials, t_ends = list(initials), [float(t) for t in t_ends]
    strides = list(diag_stride) if np.ndim(diag_stride) else [diag_stride] * len(initials)
    if not (len(initials) == len(params) == len(t_ends) == len(strides) > 0):
        raise ValueError("run needs one params, t_end and diag_stride per member")
    if min(t_ends) < 0.0:
        raise ValueError(f"t_end must be >= 0, got {min(t_ends)}")
    if min(strides) < 1:
        raise ValueError("diag_stride must be >= 1")
    if scheme not in ("explicit", "semi_implicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = initials[0].grid
    if any(f.grid != grid for f in initials):
        raise ValueError("run members must share one grid")
    if any(f.values.min(initial=0.0) < 0.0 for f in initials):
        raise ValueError("initial data must be nonnegative")

    records = [[rec] for rec in initial_records
               or [record(f, p_set=p_set, grad_p_set=grad_p_set, time=0.0) for f in initials]]
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
                try:
                    field = step_semi_implicit(field, params[i], eff)
                except NumericalFailureError as exc:
                    exc.step, exc.time = k, k * dts[i]
                    raise
                observe(i, k, field)
    return [Trajectory(snapshots=tuple(s), records=tuple(r)) for s, r in zip(snapshots, records)]
