"""Uniform Cartesian grids, cell-centered fields, and the central-difference stencil.

The solver works on a centered box [-L, L]^d (d = 1 or 2) with a no-flux
boundary, used as a truncation of free space: every profile of interest here
decays exponentially, so for box half-widths of a few decay lengths the
neglected tail sits far below the discretization error.

Layout conventions:
  * cell values are stored row-major with one array axis per space axis;
  * interior faces along axis k sit between consecutive cells of that axis;
    the steppers keep face arrays cell-sized, the face above cell i at i;
  * boundary faces always carry zero flux; the steppers store them as the
    zeros of a padded face array, so that a divergence is one subtraction
    per axis;
  * every integral is a midpoint sum, matching the cell-centered layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "squared_distance",
    "gradient_norm",
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
    h : float
        Cell width, the same along every axis.
    origin : tuple of float
        Coordinate of the low edge of the box per axis.
    """

    dim: int
    shape: tuple[int, ...]
    h: float
    origin: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"invalid dimension: d must be 1 or 2, got {self.dim}")
        if not (len(self.shape) == len(self.origin) == self.dim):
            raise ValueError("shape and origin must both have dim entries")
        for n in self.shape:
            if int(n) != n or n < 3:
                raise ValueError(f"cell count per axis must be an integer >= 3, got {n}")
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"cell width h must be positive and finite, got {self.h}")

    @property
    def cell_volume(self) -> float:
        return math.prod((self.h,) * self.dim)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + (np.arange(self.shape[axis]) + 0.5) * self.h

    def centers(self) -> tuple[np.ndarray, ...]:
        """Full cell-center coordinate arrays, one per axis (ij indexing)."""
        return tuple(np.meshgrid(*(self.axis_centers(k) for k in range(self.dim)), indexing="ij"))


def squared_distance(grid: Grid, center) -> np.ndarray:
    """|x - center|^2 sampled at cell centers; ``center`` has one coordinate per axis."""
    cc = np.atleast_1d(np.asarray(center, dtype=float))
    if cc.shape != (grid.dim,):
        raise ValueError(f"center {center!r} does not match grid dimension {grid.dim}")
    r2 = np.zeros(grid.shape)
    for k, ax in enumerate(grid.centers()):
        r2 = r2 + (ax - cc[k]) ** 2
    return r2


@lru_cache(maxsize=None)
def radius_squared(grid: Grid) -> np.ndarray:
    """|x|^2 sampled at cell centers (cached per grid, read-only)."""
    return _frozen(squared_distance(grid, (0.0,) * grid.dim))


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


def make_grid(dim: int, extent: float, cells: int) -> Grid:
    """Build a centered box [-L, L]^d tiled by ``cells`` cells of width h = 2L/cells per axis.

    Parameters
    ----------
    dim : int
        1 or 2.
    extent : float
        Half-width L; positive.
    cells : int
        Cell count per axis; >= 3.
    """
    if dim not in (1, 2):
        raise ValueError(f"invalid dimension: d must be 1 or 2, got {dim}")
    L, n = float(extent), int(cells)
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"invalid extent: half-width must be positive, got {L}")
    return Grid(dim=dim, shape=(n,) * dim, h=2.0 * L / n, origin=(-L,) * dim)


def along(ndim: int, axis: int, index) -> tuple:
    """Index taking ``index`` along one axis of an ndim-array and everything along the rest."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (ndim - axis - 1)


def central_gradient(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cell-centered derivative along one array axis of any stack of fields,
    operation for operation ``np.gradient(values, h, axis=axis, edge_order=2)``;
    written into ``out``, which must be C-ordered, when given."""
    out = np.empty(values.shape) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("central_gradient writes into C-ordered arrays only")
    at = partial(along, values.ndim, axis)
    # the interior differences are one run over the flattened arrays, with neighbours along
    # the axis ``step`` entries apart; where the run wraps around it writes edges, set below
    step = math.prod(values.shape[axis + 1:])
    flat, inner = values.reshape(-1), out.reshape(-1)[step:-step]
    np.subtract(flat[2 * step:], flat[: -2 * step], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    out[at(0)] = (-1.5 / h) * values[at(0)] + (2.0 / h) * values[at(1)] + (-0.5 / h) * values[at(2)]
    out[at(-1)] = (0.5 / h) * values[at(-3)] + (-2.0 / h) * values[at(-2)] + (1.5 / h) * values[at(-1)]
    return out


def gradient_norm(field: Field) -> np.ndarray:
    """Cellwise |grad rho| from ``central_gradient`` along every axis (one-sided at the
    box edge). This is the stencil of the diagnostics; the fluxes use two-point face
    differences instead (see ``stepping._coefficient_fluxes``), and this stencil only
    for the tangential part of a 2D face gradient. Exact for affine data everywhere."""
    grads = (central_gradient(field.values, k, field.grid.h) for k in range(field.grid.dim))
    return np.sqrt(sum(g * g for g in grads))


def integrate(field: Field) -> float:
    """Midpoint-rule integral of the field."""
    return float(np.sum(field.values) * field.grid.cell_volume)


def save_snapshot(field: Field, path) -> None:
    """Write a field in the plain-text snapshot format.

    Line 1 holds ``d n1 [n2] h1 [h2] origin...``, with h1 = h2 = h; the remaining lines
    hold the cell values row-major, one full-precision decimal per line.
    """
    g = field.grid
    head = [str(g.dim)]
    head += [str(n) for n in g.shape]
    head += [repr(float(g.h))] * g.dim
    head += [repr(float(o)) for o in g.origin]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(head) + "\n")
        for row in field.values.reshape(-1, g.shape[-1]).tolist():
            fh.write("\n".join(map(repr, row)) + "\n")


def load_snapshot(path) -> Field:
    """Read a field written by ``save_snapshot``; its cell widths must all be equal."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if not head:
            raise ValueError(f"{path}: empty snapshot file")
        dim = int(head[0])
        if dim not in (1, 2) or len(head) != 1 + 3 * dim:
            raise ValueError(f"{path}: malformed snapshot header")
        shape = tuple(int(t) for t in head[1 : 1 + dim])
        h, *spacings = (float(t) for t in head[1 + dim : 1 + 2 * dim])
        if any(s != h for s in spacings):
            raise ValueError(f"{path}: unequal spacings {' '.join(head[1 + dim : 1 + 2 * dim])}; "
                             "a grid has one cell width h")
        origin = tuple(float(t) for t in head[1 + 2 * dim : 1 + 3 * dim])
        values = np.loadtxt(fh, dtype=float, ndmin=1)
    grid = Grid(dim=dim, shape=shape, h=h, origin=origin)
    return Field(grid, values.reshape(shape, order="C"))
