"""Time advancement of the viscous flux-limited diffusion equation.

One spatial discretization, on one buffer layout for every axis (``_buffers``): cell-sized
faces, the face above cell i at i, whose cell differences D (and in 2D sums P) are contiguous
passes over a batch's members end to end. In 1D the face flux is in clip form,
(D - clip(D, -a, a))/h + eps D/h for the threshold a = chi h rho_face (``_face_flux``); in 2D a
limiter coefficient per face, from D, P and the tangential central difference of P, times D/h
(``_coefficient_fluxes``). Both come scaled by h, in zero-padded flux arrays that make the
divergence one subtraction per axis (``_divergence``).

``march`` steps a batch of members on one grid, each with its own chi, eps, dt
and step count, by the scheme of its ``StepControls``; ``run`` steps through it.
A 2D batch of at least ``_THREADED_CELLS`` (2^16) cells, where the process may run on two
CPUs, computes its second axis's fluxes on a second thread while the first thread computes
the first axis's, with the same operations and bits: numpy releases the GIL in its array
loops, and on a two-CPU Xeon a 512^2 step went from 5.0 to 3.3 ms, a 256^2 one from 1.0 to
0.76 ms. Below the threshold the handoff costs more than it saves: a 128^2 step took 300
against 250 us, and at 192^2 the gain (480 against 520 us) lay within the runs' spread.

  * explicit: forward Euler under the diffusive CFL restriction (``cfl_dt``, the
    fraction ``_CFL_SAFETY`` of the stability bound). The effective face
    coefficients lie in [0, 1 + eps], so each update is a convex combination
    plus an absorption factor; positivity and the Lp decay carry over exactly.
  * semi-implicit, 1D only: backward Euler, by sweeps (``step_semi_implicit``)
    that linearize the flux at the previous iterate on the active set (nonzero
    flux) and gradient sign of ``_face_flux`` (semi-smooth Newton), each a
    tridiagonal system solved exactly by cyclic reduction (``_Reduction``), in
    about two sweeps, and at most ``_PICARD_MAX_ITER``. The members sweep together,
    and only a sweep that changes an active set reduces the matrices again. The
    sweep that confirms a step's solution linearizes at it, and the next step's
    first sweep takes that linearization. There is no CFL ceiling, but the sweeps
    do not converge at every step size: a Gaussian converges up to 10^5 times the
    CFL step, while data with vacuum (spikes, indicators) fail at 1000 times
    (ROADMAP, Direction 2).

The boundary is the no-flux box of the grid module; the absorption term
-eps*rho makes the total mass follow the product law prod(1 - eps*dt_k).
"""

from __future__ import annotations

import math
import os
from contextvars import copy_context
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import DiagnosticsRecord, record
from .grid import Field, Grid, along, central_gradient
from .limiter import Params, limiter

__all__ = ["StepControls", "Trajectory", "CflViolationError", "NumericalFailureError",
           "PicardDivergenceError", "cfl_dt", "march", "time_mesh", "run"]


_SCHEMES = ("explicit", "semi_implicit")
_CFL_SAFETY = 0.45  # the explicit step's fraction of the heat-equation stability bound
_PICARD_MAX_ITER = 200  # accepted sweeps of one semi-implicit step before it fails
_NEG_TOL = 1e-13  # roundoff allowance of a step's negatives, relative to the member's sup norm
_DENSE = 31  # cyclic reduction leaves at most this many unknowns to a dense inverse
_THREADED_CELLS = 1 << 16  # a 2D batch of this many cells or more steps its axes on two threads


class NumericalFailureError(RuntimeError):
    """A step produced non-finite or impossibly negative values. ``row`` is the failing
    member's position in its batch; ``march`` sets the ``member`` it names, the ``step``
    and the member's ``time`` after it, which end the message."""

    row: int | None = None
    member: int | None = None
    step: int | None = None
    time: float | None = None

    def __str__(self) -> str:
        text = super().__str__()
        if self.step is None:
            return text
        return f"{text} (member {self.member}, step {self.step}, t = {self.time!r})"


class CflViolationError(NumericalFailureError):
    """An explicit step asked for with dt above the stability ceiling: a numerical failure
    (exit 2 on the command line), raised before any step is taken."""


class PicardDivergenceError(NumericalFailureError):
    """The semi-implicit sweeps failed to reach tolerance; ``trace``
    holds the fixed-point residual of every accepted sweep."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class StepControls:
    """Scheme controls: ``scheme`` is ``explicit`` or ``semi_implicit``, and ``dt = None``
    lets ``run`` pick the CFL step."""

    scheme: str = "explicit"
    dt: float | None = None
    picard_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"invalid value for 'scheme': must be one of {_SCHEMES}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("invalid value for 'dt': must be finite and positive")
        if not (np.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError("invalid value for 'picard_tol': must be finite and positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots plus the diagnostics table of one run."""

    snapshots: tuple[tuple[float, Field], ...]
    records: tuple[DiagnosticsRecord, ...]

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]


def cfl_dt(grid: Grid, eps: float) -> float:
    """Explicit stability ceiling safety * h^2 / (2 d (1 + eps)), safety = ``_CFL_SAFETY``.

    The face coefficients never exceed 1 + eps, so the constant-coefficient
    heat bound dominates every admissible state. Every CFL step is taken here, so only
    here does a step that underflows to 0 (tiny h, or 1 + eps overflowing) raise ``ValueError``.
    """
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"invalid value for 'eps': must be finite and >= 0, got {eps}")
    dt = _CFL_SAFETY * grid.h * grid.h / (2.0 * grid.dim * (1.0 + eps))
    if not dt > 0.0:
        raise ValueError(f"the CFL step safety*h^2/(2d(1+eps)) underflows to 0 (h = {grid.h}, eps = {eps})")
    return dt


def time_mesh(t_end: float, dt_req: float) -> tuple[float, int]:
    """Step and step count hitting ``t_end`` exactly: ``dt_req`` shrunk to a divisor. Every run
    and study takes its mesh here. A horizon of 0 takes no step: ``(dt_req, 0)``."""
    if t_end == 0.0:
        return dt_req, 0
    n_steps = max(1, math.ceil(t_end / dt_req - 1e-9))
    return t_end / n_steps, n_steps


def _aligned(shape: tuple, offset: int = 0) -> np.ndarray:
    """A zeroed float array of ``shape`` whose flat element ``offset`` starts a 64-byte cache
    line: a slice of a 1D allocation padded by one line. numpy aligns only to 16 bytes, and its
    AVX-512 loops store to an output that starts off a line at about 1.9 times the cost."""
    size = math.prod(shape)
    raw = np.zeros(size + 8)
    start = -(raw.ctypes.data // 8 + offset) % 8
    return raw[start:start + size].reshape(shape)


def _buffers(grid: Grid, size: int, threaded: bool = False) -> list[tuple]:
    """Work buffers of a batch of ``size`` members, one tuple per space axis: the array axis, the
    flat step of one cell along it, a cell-sized scratch array, two cell-sized face arrays (D and
    P, the face above cell i at i), the fluxes through every cell's upper and lower face, the
    index of the faces above each line's last cell, and the flat views of the kernels' contiguous
    passes (the scratch without its last and first step; the upper fluxes, D and P without their
    last step), all made once. The upper and lower fluxes are cell-sized views, one step apart, of
    one zero-padded array, whose padding and the faces above each line's last cell (set to 0 by
    the kernels) carry zero flux. The axes share the buffers, so use an axis's fluxes first;
    a ``threaded`` batch, whose 2D axes run on two threads at once (see ``march``), gives each
    axis its own. Only a threaded batch does: shared buffers stay in L2 where per-axis ones
    do not, which made a serial 192^2 step 10% slower. Every array the kernels write starts on
    a 64-byte line (``_aligned``): the scratch, D and P, and the upper fluxes, which the 1D
    threshold sums share."""
    shape = (size, *grid.shape)
    steps = [math.prod(grid.shape[a:]) for a in range(1, grid.dim + 1)]  # one cell along each axis
    pad, cells = steps[0], math.prod(shape)

    def arrays():  # the scratch, D, P and the padded flux array
        return _aligned(shape), _aligned(shape), _aligned(shape), _aligned((pad + cells,), pad)

    owned = [arrays() for _ in steps] if threaded else [arrays()] * len(steps)
    bufs = []
    for axis, (step, (scratch, diff, pair, store)) in enumerate(zip(steps, owned), 1):
        upper, lower = store[pad:].reshape(shape), store[pad - step:][:cells].reshape(shape)
        flat, diffs, pairs = scratch.reshape(-1), diff.reshape(-1), pair.reshape(-1)
        bufs.append((axis, step, scratch, diff, pair, upper, lower, along(len(shape), axis, -1),
                     flat[:-step], flat[step:], store[pad:-step], diffs[:-step], pairs[:-step]))
    return bufs


def _axis_fluxes(values: np.ndarray, half_chi_h, eps, buf: tuple, other: int) -> tuple:
    """The (upper, lower) face fluxes of one 2D axis, in its buffers ``buf`` (see ``_buffers``),
    whose tangential differences run along the array axis ``other``; see ``_coefficient_fluxes``."""
    _, step, norm, diff, pair, upper, lower, ends, *_, diffs, pairs = buf
    v = values.reshape(-1)
    with np.errstate(over="ignore"):
        np.subtract(v[step:], v[:-step], out=diffs)
        np.add(v[:-step], v[step:], out=pairs)
    diff[ends] = pair[ends] = 0.0
    central_gradient(pair, other, 2.0, out=norm)
    np.multiply(norm, norm, out=norm)
    np.add(norm, np.multiply(diff, diff, out=upper), out=norm)
    np.sqrt(norm, out=norm)
    limiter(pair, norm, half_chi_h, out=pair)
    if eps is not None:
        np.add(pair, eps, out=pair)
    np.multiply(pair, diff, out=upper)
    return upper, lower


def _coefficient_fluxes(values: np.ndarray, half_chi_h, eps, bufs, worker=None):
    """Yield the (upper, lower) face fluxes (see ``_buffers``) of every 2D axis in turn,
    h times the flux ((1 - chi rho_face/|g|)_+ + eps) g_normal.

    With D and P the difference and the sum of the two cells of a face, D is h g_normal
    and h times the tangential part of g (the face mean of the two adjacent central
    differences) is, by linearity, T = ``central_gradient(P, other, 2)``. So
    N = sqrt(T^2 + D^2) is h |g| and the flux is (``limiter(P, N, chi h/2)`` + eps) D.
    ``half_chi_h`` (chi h/2) and ``eps`` (None: no viscous term) are scalars or
    per-member columns. D and P are one contiguous pass each, which runs past each line's end
    into the next line or member, ignoring overflow as ``_face_flux`` does; they are set to 0
    there before any square, and the limiter's 0/0 then gives those faces exactly zero flux.
    T, N, the limiter and the flux run on whole cell-shaped arrays, one axis at a time
    (``_axis_fluxes``). Given a ``worker`` (an executor of one thread), the second axis runs on
    it, in the caller's context, while the first is computed and used; then the axes must not
    share buffers (``_buffers`` threaded). Either way every operation and bit is the same."""
    first, second = bufs
    later = None if worker is None else worker.submit(
        copy_context().run, _axis_fluxes, values, half_chi_h, eps, second, first[0])
    yield _axis_fluxes(values, half_chi_h, eps, first, second[0])
    yield _axis_fluxes(values, half_chi_h, eps, second, first[0]) if later is None else later.result()


def _face_flux(values: np.ndarray, half_chi_h, eps, bufs) -> tuple:
    """h times the 1D face flux of every member row, in clip form, over the members end to end.

    For the cell difference D, g = D/h and the threshold a = chi h rho_face,
    h ((1 - chi rho_face/|g|)_+ + eps) g = D - clip(D, -a, a) + eps D, which needs no square,
    root, division or sign; it is nonzero exactly on the limiter's active set |D| > a.
    ``half_chi_h`` (chi h/2) and ``eps`` (None: no viscous term) are
    scalars, per-member columns or per-cell rows (see ``march``). The flat views of ``bufs``
    (see ``_buffers``) make the threshold and D one contiguous pass over the batch, the faces
    between members included, whose flux is then reset to 0. Returns the one axis's (upper,
    lower) fluxes; D stays in its buffer.
    Overflow is ignored, so a face between members warns of nothing its members alone do not:
    the threshold is summed from scaled cells, so it overflows only where it exceeds every finite
    |D| and clips nothing, and an overflowing eps D makes a non-finite flux. The clip passes NaN
    on to ``_finalize``.
    """
    (_, step, cells, diff, clipped, upper, lower, ends, below, above, sums, diffs, _), = bufs
    v = values.reshape(-1)
    with np.errstate(over="ignore"):
        np.multiply(values, half_chi_h, out=cells)
        np.add(below, above, out=sums)
        np.subtract(v[step:], v[:-step], out=diffs)
        np.minimum(diff, upper, out=clipped)
        np.negative(upper, out=upper)
        np.maximum(clipped, upper, out=clipped)
        np.subtract(diff, clipped, out=upper)
        if eps is not None:
            np.add(upper, np.multiply(diff, eps, out=clipped), out=upper)
    upper[ends] = 0.0
    return ((upper, lower),)


def _divergence(fluxes, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-axis (upper, lower) face fluxes of the cells, taken one axis at a time, summed
    into ``out`` by one subtraction per axis (into the cell-sized ``scratch`` after the first)."""
    for k, (upper, lower) in enumerate(fluxes):
        np.subtract(upper, lower, out=scratch if k else out)
        if k:
            np.add(out, scratch, out=out)
    return out


def _finalize(values: np.ndarray) -> np.ndarray:
    """Check the raw output of a step, one member per leading row.

    Non-finite values, and negative values beyond ``_NEG_TOL`` times the
    member's sup norm, raise ``NumericalFailureError`` with the first such
    row. Roundoff-level negatives are clamped to 0 in their own row of a
    copy, aligned as ``_aligned`` makes it, which is returned; clean output
    is returned as it is.
    """
    if (values.view(np.uint64).max() < 0x7FF0000000000000  # nonnegative and finite, in one reduction
            or values.min() >= 0.0 and values.max() < math.inf):  # -0.0 too
        return values
    values, raw = _aligned(values.shape), values
    values[...] = raw
    for row, vals in enumerate(values):
        lowest, highest = float(vals.min()), float(vals.max())
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise _failure("non-finite value produced by a time step", row)
        floor = -_NEG_TOL * max(highest, -lowest, 1e-300)
        if lowest < floor:
            raise _failure(f"negative density {lowest} beyond the roundoff floor {floor}", row)
        if lowest < 0.0:
            np.maximum(vals, 0.0, out=vals)
    return values


def march(initials, params, dts, n_steps, controls: StepControls = StepControls(), members=None):
    """Advance member runs on one grid as one batch of ``controls.scheme`` steps.

    Member i takes ``n_steps[i]`` steps of ``dts[i]`` with ``params[i]``; members must come in
    non-increasing ``n_steps`` order. An explicit step is the update
    rho + dt*div((a+eps) grad rho) - dt*eps*rho of every member at once, and a dt above the CFL
    ceiling of a member that takes a step raises ``CflViolationError`` up front; a member of no
    steps binds none. A semi-implicit step (1D only: here alone a 2D grid raises ``ValueError``)
    solves all members at once by ``step_semi_implicit``, handing on the previous step's last
    linearization. Yields ``(k, state)`` after every step k, where ``state`` stacks the members
    still running, which are always a prefix; it is a work buffer that the next step overwrites.
    The states, as every array the kernels write, start on a 64-byte line (see ``_aligned``).
    Every step is checked for finiteness and negativity. A failing step raises
    ``NumericalFailureError`` tagged with its step, its member's time and the member, named by
    ``members`` (default: their positions), as a CFL violation is. A 1D explicit block repeats
    its per-member operands (chi h/2, dt/h^2, and eps and dt*eps when some member absorbs) into
    per-cell rows once; 2D blocks and the semi-implicit sweep keep (members, 1) columns. Both
    give the same products bit for bit. In cache a row multiplies faster than a column, past it
    slower (see the README on batches). A 2D block of at least ``_THREADED_CELLS`` cells (live
    members times cells), where the process may run on two CPUs (``_cpus``), computes its second
    axis's fluxes on a worker thread, under the caller's context (``np.errstate`` included),
    while the calling thread computes the first axis's and their divergence
    (``_coefficient_fluxes``); the rest of the step follows as in a serial block. The thread
    starts with the first such block and stops when the march ends, however it ends (exhausted,
    closed early or failed); 1D, semi-implicit and smaller blocks start none.
    """
    if any(b > a for a, b in zip(n_steps, n_steps[1:])):
        raise ValueError("members must come in non-increasing n_steps order")
    grid, implicit = initials[0].grid, controls.scheme == "semi_implicit"
    members = range(len(initials)) if members is None else members
    if implicit and grid.dim != 1:
        raise ValueError(f"invalid value for 'scheme': semi_implicit is 1D only, the grid is {grid.dim}D")
    for name, p, dt, n in zip(members, params, dts, n_steps):
        ceiling = math.inf if implicit or not n else cfl_dt(grid, p.eps)  # the semi-implicit scheme has none
        if dt > ceiling * (1.0 + 1e-9):
            raise CflViolationError(f"dt = {dt} exceeds the CFL ceiling {ceiling} (member {name})")
    col = (-1,) + (1,) * grid.dim
    chi, eps, dt = (np.array(x, dtype=float).reshape(col)
                    for x in ([p.chi for p in params], [p.eps for p in params], dts))
    dt_eps, absorbs = dt * eps, bool(np.any(eps))
    # the fluxes come h times too large (see _face_flux and _coefficient_fluxes), so their
    # divergence is scaled by dt/h^2
    h = grid.h
    half_chi_h, scale = 0.5 * h * chi, dt / (h * h)
    state = _aligned((len(initials), *grid.shape))
    for row, f in zip(state, initials):
        row[...] = f.values
    kernel = _face_flux if grid.dim == 1 else _coefficient_fluxes
    k, worker = 0, None  # the second axis's thread, started by the first threaded block
    try:
        for live in range(len(n_steps), 0, -1):
            if n_steps[live - 1] == k:
                continue
            threaded = grid.dim > 1 and state[:live].size >= _THREADED_CELLS and _cpus() > 1
            if threaded and worker is None:
                from concurrent.futures import ThreadPoolExecutor  # pulls in logging: only when used
                worker = ThreadPoolExecutor(1)
            fluxes = partial(kernel, worker=worker) if threaded else kernel
            bufs = _buffers(grid, live, threaded)
            cur, nxt, scratch = state[:live], _aligned(state[:live].shape), bufs[0][2]
            c, e = half_chi_h[:live], eps[:live] if absorbs else None
            d, de = scale[:live], dt_eps[:live]
            last = None  # the batch's last semi-implicit linearization
            if grid.dim == 1 and not implicit:
                c, e, d, de = (x if x is None else np.repeat(x, cur.shape[1], axis=1) for x in (c, e, d, de))
            while k < n_steps[live - 1]:
                k += 1
                try:
                    if implicit:
                        _, _, last = step_semi_implicit(cur, chi[:live], eps[:live], dt[:live], h, controls,
                                                        bufs, last, nxt)
                    else:
                        _divergence(fluxes(cur, c, e, bufs), nxt, scratch)
                        # (rho + dt*div) - (dt*eps)*rho in this order, so every member is
                        # bitwise a lone run; with all eps = 0 the last term is +0.0, a no-op
                        np.multiply(d, nxt, out=nxt)
                        np.add(cur, nxt, out=nxt)
                        if absorbs:
                            np.subtract(nxt, np.multiply(de, cur, out=scratch), out=nxt)
                    cur, nxt = _finalize(nxt), cur
                except NumericalFailureError as exc:
                    exc.member, exc.step, exc.time = members[exc.row], k, k * dts[exc.row]
                    raise
                yield k, cur
            state = cur
    finally:  # exhausted, closed early or failed: no thread outlives the march
        if worker is not None:
            worker.shutdown()


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Reduction:
    """Cyclic reduction of tridiagonal matrices, one per row of ``diag`` (rows, n), with rows
    -lower_{i-1} x_{i-1} + diag_i x_i - upper_i x_{i+1} (``lower`` and ``upper`` per face, (rows, n - 1)),
    kept to ``solve`` for any right-hand sides.

    Each matrix is padded with identity rows to the fewest, (m + 1) 2^L - 1 with m <= ``_DENSE``,
    and the padded matrices are laid end to end, an identity row apart, so that one operation
    spans them all while each sees the operations of a lone matrix. Each of the L levels
    substitutes the even rows (0-based), divided by their diagonal, into the odd ones, which
    form the next level; each matrix's last m unknowns are solved with the inverse of their
    matrix, and back-substitution recovers the even ones. This is elimination without
    pivoting: on an M-matrix every update of the right-hand side and every back-substituted
    unknown adds nonnegative terms, as does the base, whose inverse is nonnegative; so a
    nonnegative right-hand side gives a nonnegative solution. A singular base or a
    non-finite solution raises ``NumericalFailureError`` naming the first such matrix.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        rows, n = diag.shape
        self.rows, self.n = rows, n
        # the fewest levels that leave at most _DENSE unknowns
        self.levels = next(k for k in range(n.bit_length() + 1) if -(-(n + 1) >> k) <= _DENSE + 1)
        self.width = -(-(n + 1) >> self.levels) << self.levels  # a matrix's rows and the one between
        coeffs = np.zeros((3, rows, self.width))
        coeffs[0, :, 1:n], coeffs[1, :, :n], coeffs[2, :, :n - 1] = lower, diag, upper
        coeffs[1, :, n:] = 1.0
        lo, b, up = (a.reshape(-1)[:-1] for a in coeffs)
        self.terms = []
        with np.errstate(all="ignore"):
            for _ in range(self.levels):
                r, lo_e, up_e = 1.0 / b[0::2], lo[0::2], up[0::2]
                f_lo, f_up = lo[1::2] * r[:-1], up[1::2] * r[1:]  # the odd rows' multiples of their neighbours
                self.terms.append((r, lo_e, up_e, f_lo, f_up))
                b = b[1::2] - f_lo * up_e[:-1] - f_up * lo_e[1:]
                lo, up = f_lo * lo_e[:-1], f_up * up_e[1:]
            m = self.width >> self.levels  # a matrix's m unknowns and the row between
            lo, up, b = (np.append(a, 0.0).reshape(rows, m)[:, :-1] for a in (lo, up, b))
            base = np.zeros((rows, (m - 1) ** 2))
            base[:, ::m], base[:, m - 1::m], base[:, 1::m] = b, -lo[:, 1:], -up[:, :-1]
            base = base.reshape(rows, m - 1, m - 1)
            try:
                self.inverse = np.linalg.inv(base)
            except np.linalg.LinAlgError as exc:
                raise _failure("tridiagonal solve failed: singular matrix",
                               np.argmax(np.linalg.det(base) == 0.0)) from exc

    def solve(self, rhs) -> np.ndarray:
        """The solutions for the rows of ``rhs``, worked out in place in one array: row i of
        the laid-out matrix sits at i + 1, between two zero guards, and the unknowns of level l
        sit every 2^l places."""
        x = np.zeros(self.rows * self.width + 1)
        x[1:].reshape(self.rows, self.width)[:, :self.n] = rhs
        top, steps = x.size - 1, [2**k for k in range(self.levels + 1)]
        with np.errstate(all="ignore"):
            for s, (_, _, _, f_lo, f_up) in zip(steps, self.terms):
                odd = x[2 * s:top:2 * s]
                odd += f_lo * x[s:top - 2 * s:2 * s]
                odd += f_up * x[3 * s:top:2 * s]
            x[self.width::self.width] = 0.0  # the rows between matrices, whatever a failing one left
            base = x[steps[-1]::steps[-1]].reshape(self.rows, -1)[:, :-1]
            base[...] = (self.inverse @ base[..., None])[..., 0]
            for s, (r, lo_e, up_e, _, _) in reversed(list(zip(steps, self.terms))):
                even = x[s:top:2 * s]
                new = lo_e * x[:top - s:2 * s]
                new += up_e * x[2 * s::2 * s]
                new += even
                np.multiply(r, new, out=even)
        x = x[1:].reshape(self.rows, self.width)[:, :self.n]
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise _failure("non-finite value produced by the implicit solve", np.argmax(~finite))
        return x


def _failure(message: str, row) -> NumericalFailureError:
    """The error ``message`` of the batch's row ``row``."""
    exc = NumericalFailureError(message)
    exc.row = int(row)
    return exc


def _faces(flux) -> np.ndarray:
    """What a face's linearized flux depends on: the sign of the flux of ``_face_flux``
    (with no viscous term) on the active set, where it is nonzero, and 2 elsewhere."""
    return np.where(flux != 0.0, np.sign(flux), 2.0)


def _active_set_matrix(faces, chi, eps, dt, h: float) -> _Reduction:
    """The reduced 1D backward-Euler matrices of member rows, the flux linearized at states
    z of ``_faces`` ``faces``; chi, eps and dt are scalars or per-member columns.

    On the active set the face flux is (1 + eps) g - chi s rho_face with s = sign(diff),
    elsewhere eps g. With c = eps + [active], d = chi s [active] and P, Q = dt/h (c/h -+ d/2)
    per face, (1 + eps*dt) u - dt*div F(u) is tridiagonal: diagonal
    1 + eps*dt + Q_{i+1/2} + P_{i-1/2}, super-diagonal -P, sub-diagonal -Q.
    P, Q >= 0 (an M-matrix) wherever chi h <= 2 (1 + eps).
    """
    on = faces != 2.0
    c, half_d = eps + on, np.where(on, 0.5 * chi * faces, 0.0)
    upper, lower = (c / h - half_d) * (dt / h), (c / h + half_d) * (dt / h)
    diag = np.empty((len(faces), faces.shape[1] + 1))
    diag[...] = 1.0 + eps * dt
    diag[:, :-1] += lower
    diag[:, 1:] += upper
    return _Reduction(lower, diag, upper)


def step_semi_implicit(rho: np.ndarray, chi, eps, dt, h: float, controls: StepControls, bufs, last=None,
                       out=None):
    """One backward-Euler step (1 + eps*dt) u - dt*div F(u) = rho of every 1D member row
    of ``rho`` by sweeps, with ``chi``, ``eps`` and ``dt`` per-member columns.

    A sweep T linearizes the flux at a point, freezing the limiter's active set and gradient
    sign, and solves exactly (a semi-smooth Newton step, see ``_active_set_matrix``); fixed
    points of T solve the step. Each member keeps its own accepted point z (first rho), its
    image T(z), its relaxation theta (first 1) and its trace of the L2 fixed-point residuals
    |T(p) - p| / |T(p)| of its accepted points p. Its next point is z + theta (T(z) - z),
    which at theta = 1 is T(z) itself, so that a confirming sweep is at the step's solution.
    A point is accepted when its residual drops below the last accepted one or theta <= 1/64;
    otherwise theta is halved, and after each acceptance it becomes min(1, 1.5 theta). The
    backtracking guards against threshold flicker (faces hopping across the limiter cutoff
    between sweeps) at large dt; it never moves the fixed point, and theta stays at 1 whenever
    plain iteration contracts. A member is done at an accepted residual within ``picard_tol``,
    with T of that point; one still above it after ``_PICARD_MAX_ITER`` accepted updates
    raises ``PicardDivergenceError``.

    The members' sweeps share one face flux, reduction and solve; a finished member stays at
    its last point, which changes nothing. The matrices are reduced and solved again only
    when some member's ``_faces`` change, so the sweep that confirms a fixed point solves
    nothing. ``last``, the points, faces and reduction of the last sweep, comes from the
    previous step (None: none) and is returned with the solutions (in ``out`` when given) and
    the traces. A step that starts at the points of ``last``, as one does after a step whose
    last sweep confirmed its solution, takes its faces and reduction for the first sweep
    without a face flux; the check is at the first sweep only, and ``last`` keeps the step's
    own array of points. ``bufs`` are the members' ``_buffers``; a sweep's ``_faces`` are those of
    the upper fluxes that ``_face_flux`` returns, less each row's boundary face. A failure is
    raised for the first failing member of a sweep, its position as ``row``; ``march`` checks
    the solutions, in which the exact solve of an M-matrix leaves no solver-tolerance negatives.
    """
    out = np.empty_like(rho) if out is None else out
    point, half_chi_h = rho.copy(), 0.5 * h * chi  # the points, written over by the members still running
    accepted, image = np.empty_like(rho), [None] * len(rho)  # each member's z, and T(z) as solved
    theta, traces, running = [1.0] * len(rho), [[] for _ in rho], range(len(rho))
    reuse = last is not None and (last[0] == rho).all()  # the first sweep is at the last one's points
    faces, reduction = (None, None) if last is None else last[1:]
    solved = None  # the reduction solved for rho in this step, and its solutions
    while running:
        if not reuse:
            (upper, _), = _face_flux(point, half_chi_h, None, bufs)
            new = _faces(upper[:, :-1])
            if faces is None or not (new == faces).all():
                faces, reduction = new, _active_set_matrix(new, chi, eps, dt, h)
        reuse = False
        if solved is None or solved[0] is not reduction:
            solved = reduction, reduction.solve(rho)
        still = []
        for i in running:
            sol, trace = solved[1][i], traces[i]
            gap = sol - point[i]
            residual = math.sqrt(gap.dot(gap)) / max(math.sqrt(sol.dot(sol)), 1e-300)  # L2 norms
            if trace and not (residual < trace[-1] or theta[i] <= 1.0 / 64.0):
                theta[i] *= 0.5
            else:
                trace.append(residual)
                if not residual > controls.picard_tol:  # a NaN residual (both norms overflow) ends it too
                    out[i] = sol
                    continue
                if len(trace) > _PICARD_MAX_ITER:  # the first sweep and the accepted updates
                    exc = PicardDivergenceError(f"Picard iteration exceeded {_PICARD_MAX_ITER} sweeps "
                                                f"(last fixed-point residual {residual})", trace)
                    exc.row = i
                    raise exc
                accepted[i], image[i] = point[i], sol
                theta[i] = min(1.0, 1.5 * theta[i])
            z, t = accepted[i], theta[i]
            point[i] = image[i] if t == 1.0 else z + t * (image[i] - z)
            still.append(i)
        running = still
    return out, traces, (point, faces, reduction)


def run(initials, params, controls: StepControls, t_ends, diag_stride=10, snapshot_stride: int = 0,
        initial_records=None) -> list[Trajectory]:
    """Advance members on one grid to their ``t_ends`` with fixed steps, recording
    diagnostics; one trajectory per member, whose outputs do not depend on the others.

    Member i starts from ``initials[i]`` with ``params[i]``; ``diag_stride`` is
    one stride or one per member. The requested dt (or the member's CFL step when unset)
    and its t_end give the member's ``time_mesh``. Diagnostics are recorded at t = 0, every
    ``diag_stride`` steps, and at the final step; snapshots keep the initial and final states
    plus every ``snapshot_stride``-th step when that stride is positive. All members, those
    of no steps too, go to one ``march`` batch. ``initial_records``, when given, are the
    members' t = 0 records, which are then not computed again. Deterministic given its inputs.
    """
    initials, t_ends = list(initials), [float(t) for t in t_ends]
    strides = list(diag_stride) if np.ndim(diag_stride) else [diag_stride] * len(initials)
    if not (len(initials) == len(params) == len(t_ends) == len(strides) > 0):
        raise ValueError("run needs one params, t_end and diag_stride per member")
    if min(t_ends) < 0.0:
        raise ValueError(f"t_end must be >= 0, got {min(t_ends)}")
    if min(strides) < 1:
        raise ValueError("diag_stride must be >= 1")
    grid = initials[0].grid
    if any(f.grid != grid for f in initials):
        raise ValueError("run members must share one grid")
    if any(f.values.min(initial=0.0) < 0.0 for f in initials):
        raise ValueError("initial data must be nonnegative")

    records = [[rec] for rec in initial_records or [record(f) for f in initials]]
    snapshots = [[(0.0, f)] for f in initials]
    dts, ns = zip(*(time_mesh(t, controls.dt or cfl_dt(grid, p.eps)) for p, t in zip(params, t_ends)))

    def observe(i: int, k: int, values) -> None:
        last = k == ns[i]
        diag = last or k % strides[i] == 0
        snap = last or (snapshot_stride > 0 and k % snapshot_stride == 0)
        if diag or snap:
            field = Field.density(grid, values)
            t = t_ends[i] if last else k * dts[i]
            if diag:
                records[i].append(record(field, time=t))
            if snap:
                snapshots[i].append((t, field))

    order = sorted(range(len(ns)), key=lambda i: -ns[i])
    period = math.gcd(*strides, snapshot_stride)  # a member observes only at its multiples or last step
    batch = [[seq[i] for i in order] for seq in (initials, params, dts, ns)]
    for k, state in march(*batch, controls, members=order):
        if k % period == 0 or k in ns:
            for i, values in zip(order, state):
                observe(i, k, values)
    return [Trajectory(snapshots=tuple(s), records=tuple(r)) for s, r in zip(snapshots, records)]
