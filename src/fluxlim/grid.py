"""Uniform Cartesian grids, cell-centered fields, and face-based operators.

The solver works on a centered box [-L, L]^d (d = 1 or 2) with a no-flux
boundary, used as a truncation of free space: every profile of interest here
decays exponentially, so for box half-widths of a few decay lengths the
neglected tail sits far below the discretization error.

Layout conventions:
  * cell values are stored row-major with one array axis per space axis;
  * interior faces along axis k sit between consecutive cells of that axis,
    so face arrays are one element shorter along k;
  * boundary faces always carry zero flux and are not stored;
  * every integral is a midpoint sum, matching the cell-centered layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "FaceData",
    "make_grid",
    "gradient_norm",
    "face_gradient",
    "divergence",
    "integrate",
    "save_snapshot",
    "load_snapshot",
]


def _frozen(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, immutable once constructed.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    shape : tuple of int
        Cell counts per axis, each >= 3.
    spacing : tuple of float
        Cell width per axis, uniform along each axis.
    origin : tuple of float
        Coordinate of the low edge of the box per axis.
    """

    dim: int
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"invalid dimension: d must be 1 or 2, got {self.dim}")
        if not (len(self.shape) == len(self.spacing) == len(self.origin) == self.dim):
            raise ValueError("shape, spacing and origin must all have dim entries")
        for n in self.shape:
            if int(n) != n or n < 3:
                raise ValueError(f"cell count per axis must be an integer >= 3, got {n}")
        for h in self.spacing:
            if not (np.isfinite(h) and h > 0.0):
                raise ValueError(f"spacing must be positive and finite, got {h}")

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def total_measure(self) -> float:
        return self.cell_volume * float(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n, h, o = self.shape[axis], self.spacing[axis], self.origin[axis]
        return o + (np.arange(n) + 0.5) * h

    def centers(self) -> tuple[np.ndarray, ...]:
        """Full cell-center coordinate arrays, one per axis (ij indexing)."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=None)
def _radius_squared(grid: Grid) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for c in grid.centers():
        r2 = r2 + c * c
    return _frozen(r2)


def radius_squared(grid: Grid) -> np.ndarray:
    """|x|^2 sampled at cell centers (cached per grid)."""
    return _radius_squared(grid)


@dataclass(frozen=True)
class Field:
    """Cell-centered scalar sample on a grid.

    The values array is copied and frozen at construction; use ``density``
    for fields that must additionally be nonnegative. All constructors
    reject non-finite entries.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.values)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("field values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", arr)

    @classmethod
    def density(cls, grid: Grid, values: np.ndarray) -> "Field":
        """Construct a field that must be nonnegative everywhere."""
        f = cls(grid, values)
        if f.values.min(initial=0.0) < 0.0:
            raise ValueError("density values must be nonnegative")
        return f


@dataclass(frozen=True)
class FaceData:
    """Per-face data for the interior faces normal to one axis.

    ``normal`` holds the component along the face normal, ``tangential`` the
    remaining d-1 components of the reconstructed gradient vector. Boundary
    faces are implicit and carry zero flux.
    """

    grid: Grid
    axis: int
    normal: np.ndarray
    tangential: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        expected = list(self.grid.shape)
        expected[self.axis] -= 1
        expected = tuple(expected)
        if self.normal.shape != expected:
            raise ValueError(f"normal face array must have shape {expected}")
        for t in self.tangential:
            if t.shape != expected:
                raise ValueError(f"tangential face arrays must have shape {expected}")

    def norm(self) -> np.ndarray:
        """Euclidean norm of the full reconstructed gradient per face."""
        s = self.normal * self.normal
        for t in self.tangential:
            s = s + t * t
        return np.sqrt(s)


def make_grid(dim: int, extent, cells) -> Grid:
    """Build a centered box [-L, L]^d tiled by uniform cells.

    Parameters
    ----------
    dim : int
        1 or 2.
    extent : float or sequence of float
        Half-width L per axis; positive.
    cells : int or sequence of int
        Cell count per axis; >= 3.
    """
    if dim not in (1, 2):
        raise ValueError(f"invalid dimension: d must be 1 or 2, got {dim}")
    ext = np.broadcast_to(np.asarray(extent, dtype=float), (dim,))
    cel = np.broadcast_to(np.asarray(cells), (dim,))
    for L in ext:
        if not (np.isfinite(L) and L > 0.0):
            raise ValueError(f"invalid extent: half-width must be positive, got {L}")
    shape = tuple(int(n) for n in cel)
    spacing = tuple(2.0 * float(L) / n for L, n in zip(ext, shape))
    origin = tuple(-float(L) for L in ext)
    return Grid(dim=dim, shape=shape, spacing=spacing, origin=origin)


def along(ndim: int, axis: int, index) -> tuple:
    """Index taking ``index`` along one axis of an ndim-array and everything along the rest."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (ndim - axis - 1)


def cell_gradient(field: Field) -> tuple[np.ndarray, ...]:
    """Cell-centered gradient by central differences (one-sided at the box edge).

    This is the stencil used by the diagnostics; fluxes use face differences
    instead (see ``face_gradient``). Exact for affine data everywhere.
    """
    v = field.values
    g = field.grid
    if g.dim == 1:
        return (np.gradient(v, g.spacing[0], edge_order=2),)
    return tuple(np.gradient(v, g.spacing[k], axis=k, edge_order=2) for k in range(g.dim))


def gradient_norm(field: Field) -> np.ndarray:
    """Cellwise |grad rho| from the central differences of ``cell_gradient``."""
    s = np.zeros(field.grid.shape)
    for g in cell_gradient(field):
        s = s + g * g
    return np.sqrt(s)


def face_gradient(field: Field) -> tuple[FaceData, ...]:
    """Reconstructed gradient on interior faces, one FaceData per axis.

    The normal component at the face between cells i and i+1 is the two-point
    difference (rho_{i+1} - rho_i)/h. Tangential components average the two
    adjacent cell-centered central differences; this reconstruction is first
    order but supplies the full gradient vector needed by the flux limiter.
    """
    g = field.grid
    v = field.values
    cg = cell_gradient(field) if g.dim > 1 else None
    out = []
    for axis in range(g.dim):
        h = g.spacing[axis]
        normal = np.diff(v, axis=axis) / h
        tang = []
        if g.dim > 1:
            lo, hi = along(g.dim, axis, slice(None, -1)), along(g.dim, axis, slice(1, None))
            for other in range(g.dim):
                if other == axis:
                    continue
                gc = cg[other]
                tang.append(0.5 * (gc[lo] + gc[hi]))
        out.append(FaceData(grid=g, axis=axis, normal=normal, tangential=tuple(tang)))
    return tuple(out)


def divergence(fluxes) -> Field:
    """Discrete divergence of per-axis face fluxes (normal components only).

    Boundary faces are zero, so the cell sum of divergence times volume
    telescopes to zero exactly in exact arithmetic.
    """
    fluxes = tuple(fluxes)
    if not fluxes:
        raise ValueError("divergence needs at least one FaceData")
    g = fluxes[0].grid
    acc = np.zeros(g.shape)
    for fd in fluxes:
        if fd.grid is not g and fd.grid != g:
            raise ValueError("all fluxes must share one grid")
        h = g.spacing[fd.axis]
        scaled = fd.normal / h
        acc[along(g.dim, fd.axis, slice(None, -1))] += scaled
        acc[along(g.dim, fd.axis, slice(1, None))] -= scaled
    return Field(g, acc)


def integrate(field: Field, weight=None) -> float:
    """Midpoint-rule integral of the field, optionally against a weight array."""
    if weight is None:
        return float(np.sum(field.values) * field.grid.cell_volume)
    w = np.asarray(weight, dtype=float)
    return float(np.sum(field.values * w) * field.grid.cell_volume)


def save_snapshot(field: Field, path) -> None:
    """Write a field in the plain-text snapshot format.

    Line 1 holds ``d n1 [n2] h1 [h2] origin...``; the remaining lines hold
    the cell values row-major, one full-precision decimal per line.
    """
    g = field.grid
    head = [str(g.dim)]
    head += [str(n) for n in g.shape]
    head += [repr(float(h)) for h in g.spacing]
    head += [repr(float(o)) for o in g.origin]
    lines = [" ".join(head)]
    lines.extend(repr(float(x)) for x in field.values.ravel(order="C"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path) -> Field:
    """Read a field written by ``save_snapshot``."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if not head:
            raise ValueError(f"{path}: empty snapshot file")
        dim = int(head[0])
        if len(head) != 1 + 3 * dim:
            raise ValueError(f"{path}: malformed snapshot header")
        shape = tuple(int(t) for t in head[1 : 1 + dim])
        spacing = tuple(float(t) for t in head[1 + dim : 1 + 2 * dim])
        origin = tuple(float(t) for t in head[1 + 2 * dim : 1 + 3 * dim])
        values = np.loadtxt(fh, dtype=float, ndmin=1)
    grid = Grid(dim=dim, shape=shape, spacing=spacing, origin=origin)
    return Field(grid, values.reshape(shape, order="C"))
