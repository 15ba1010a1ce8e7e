"""Flat ``key = value`` run configuration: parsing, validation, builders.

The format is deliberately small: UTF-8 text, one assignment per line,
``#`` starts a comment, keys are known in advance and may appear once.
Unknown keys and malformed lines are hard errors so a typo cannot silently
fall back to a default, and so are keys the initial condition would ignore:
an ``ic_*`` key that the chosen ``ic`` kind does not read (``_IC_KEYS``), a
grid key beside ``ic = snapshot`` (``_GRID_KEYS``), or ``ic_amplitude`` beside
``ic_mass``. The stationary peaks are initial data like the others, built by
``profiles``. The stepping tolerances that no run varies,
the CFL safety factor and the Picard sweep cap, are constants of ``stepping``; the
diagnostics' fixed columns and exponents are ``COLUMNS`` of ``diagnostics``, and the
relative-entropy floor of the studies is ``_SIGMA_REL`` of ``studies``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .diagnostics import COLUMNS, DiagnosticsRecord, record
from .grid import Field, Grid, load_snapshot, make_grid
from .profiles import factorized, gaussian_bump, multi_peak, poly_spike, single_peak
from .stepping import _SCHEMES, StepControls, cfl_dt

__all__ = ["ConfigError", "RunConfig", "parse_config", "build_problem", "build_controls",
           "check_cell_steps", "STATIONARY_KINDS"]

# The exponential peaks, exact or O(h) fixed points of the inviscid flow: the kinds of steady check
STATIONARY_KINDS = ("single_peak", "multi_peak", "factorized")
# Each ic kind and the ic_* keys it reads; a config may set no other ic_* key
_IC_KEYS = {
    "gaussian": ("ic_mass", "ic_amplitude", "ic_width", "ic_center"),
    "uniform": ("ic_amplitude",),
    "spike": ("ic_width", "ic_center", "ic_p", "ic_pnorm"),
    "single_peak": ("ic_mass", "ic_amplitude", "ic_center"),
    "multi_peak": ("ic_mass", "ic_centers", "ic_amplitudes"),
    "factorized": ("ic_mass", "ic_amplitude", "ic_center"),
    "snapshot": ("ic_path",),
}
# The keys of the grid, which ic = snapshot does not read: a snapshot brings its own grid
_GRID_KEYS = ("dim", "cells", "box_halfwidth")
# Work-size guard, per batch of runs: 64x the cells of the largest shipped run
# (512^2), which bounds the memory of a batch, and over 100x its cells x time steps (7.8e7).
_MAX_CELLS = 4096**2
_MAX_CELL_STEPS = 10**10


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One run: grid, physics, initial condition, stepping, outputs."""

    dim: int = 1
    box_halfwidth: float | None = None  # default 5/chi when unset
    cells: int = 512
    chi: float = 1.0
    eps: float = 0.0
    scheme: str = "explicit"
    dt: float | None = None
    picard_tol: float = 1e-10
    t_end: float = 1.0
    diag_stride: int = 10
    ic: str = "gaussian"
    ic_mass: float | None = None
    ic_amplitude: float | None = None
    ic_width: float = 1.0
    ic_center: tuple[float, ...] = (0.0,)
    ic_centers: tuple[float, ...] | None = None
    ic_amplitudes: tuple[float, ...] | None = None
    ic_p: float = 4.0
    ic_pnorm: float = 1.0
    ic_path: str | None = None
    out: str = "out"
    snapshot_stride: int = 0
    eps_list: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0)
    spike_widths: tuple[float, ...] = (0.8, 0.4, 0.2)


def _parse_floats(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(float(p) for p in parts)


# The keys are the RunConfig fields, each parsed by its annotated type (optional or not)
_TYPE_PARSERS = {"int": int, "float": float, "str": str, "tuple[float, ...]": _parse_floats}
_PARSERS = {f.name: _TYPE_PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def _validate(cfg: RunConfig) -> None:
    def bad(key: str, why: str):
        return ConfigError(f"invalid value for '{key}': {why}")

    if cfg.dim not in (1, 2):
        raise bad("dim", f"must be 1 or 2, got {cfg.dim}")
    if cfg.cells < 3:
        raise bad("cells", "need at least 3 cells per axis")
    if not (np.isfinite(cfg.chi) and cfg.chi >= 0.0):
        raise bad("chi", f"must be finite and >= 0, got {cfg.chi}")
    if not 0.0 < 2.0 * _half_width(cfg) / cfg.cells < np.inf:
        raise bad("box_halfwidth", "must be positive, with a finite cell width 2*box_halfwidth/cells")
    if not (np.isfinite(cfg.eps) and cfg.eps >= 0.0):
        raise bad("eps", f"must be finite and >= 0, got {cfg.eps}")
    if cfg.scheme not in _SCHEMES:
        raise bad("scheme", f"must be one of {_SCHEMES}")
    if cfg.dt is not None and not (np.isfinite(cfg.dt) and cfg.dt > 0.0):
        raise bad("dt", "must be finite and positive")
    if not cfg.picard_tol > 0.0:
        raise bad("picard_tol", "must be positive")
    if not (np.isfinite(cfg.t_end) and cfg.t_end >= 0.0):
        raise bad("t_end", "must be finite and >= 0")
    if cfg.diag_stride < 1:
        raise bad("diag_stride", "must be >= 1")
    # no p = inf: a spike's Lp norm would read 0**0 = 1
    if not (np.isfinite(cfg.ic_p) and cfg.ic_p >= 1.0):
        raise bad("ic_p", f"exponents must be finite and >= 1, got {cfg.ic_p}")
    if cfg.ic not in _IC_KEYS:
        raise bad("ic", f"must be one of {tuple(_IC_KEYS)}")
    if cfg.ic in STATIONARY_KINDS and not cfg.chi > 0.0:
        raise bad("chi", "stationary profiles need chi > 0")
    if cfg.ic_mass is not None and not cfg.ic_mass > 0.0:
        raise bad("ic_mass", "must be positive")
    if cfg.ic_amplitude is not None and cfg.ic != "uniform" and not cfg.ic_amplitude > 0.0:
        raise bad("ic_amplitude", "must be positive")
    if cfg.ic == "uniform" and cfg.ic_amplitude is not None and cfg.ic_amplitude < 0.0:
        raise bad("ic_amplitude", "must be >= 0 for a uniform field")
    if not cfg.ic_width > 0.0:
        raise bad("ic_width", "must be positive")
    if not cfg.ic_pnorm > 0.0:
        raise bad("ic_pnorm", "must be positive")
    if cfg.snapshot_stride < 0:
        raise bad("snapshot_stride", "must be >= 0")
    if cfg.ic == "snapshot" and not cfg.ic_path:
        raise bad("ic_path", "required when ic = snapshot")
    if cfg.ic_amplitudes is not None and not all(np.isfinite(a) and a > 0.0 for a in cfg.ic_amplitudes):
        raise bad("ic_amplitudes", "entries must be finite and positive")
    if cfg.ic == "multi_peak":
        if cfg.dim != 1:
            raise bad("dim", "multi_peak profiles are one-dimensional")
        if cfg.ic_centers is None or cfg.ic_amplitudes is None:
            raise bad("ic_centers", "multi_peak needs ic_centers and ic_amplitudes")
        if len(cfg.ic_centers) != len(cfg.ic_amplitudes):
            raise bad("ic_amplitudes", "must match ic_centers in length")
    for w in cfg.spike_widths:
        if not w > 0.0:
            raise bad("spike_widths", "widths must be positive")
    if cfg.ic != "snapshot":  # a snapshot brings its own grid, checked by build_problem
        dt = cfg.dt or cfl_dt(make_grid(cfg.dim, _half_width(cfg), cfg.cells), cfg.eps)
        check_cell_steps(cfg.cells**cfg.dim, cfg.t_end, dt)


def check_cell_steps(cells: int, t_end: float, dt: float, runs: int = 1) -> None:
    """Raise ``ConfigError`` if a batch of ``runs`` runs of ``cells`` cells exceeds the cell
    limit, or, to ``t_end`` by ``dt``, the cell-step budget."""
    if runs * cells > _MAX_CELLS:
        raise ConfigError(f"invalid value for 'cells': {runs} x {cells} cells exceed the limit of {_MAX_CELLS}")
    if dt > 0.0 and runs * cells * (t_end / dt) > _MAX_CELL_STEPS:
        raise ConfigError(f"invalid value for 't_end': {runs} x {cells} cells x {t_end / dt:.3g} time "
                          f"steps exceed the budget of {_MAX_CELL_STEPS:.0e} cell-steps")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat ``key = value`` configuration."""
    seen: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            seen[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for '{key}': {exc}") from None
    cfg = replace(RunConfig(), **seen)
    _validate(cfg)
    unread = [key for key in seen if key.startswith("ic_") and key not in _IC_KEYS[cfg.ic]
              or cfg.ic == "snapshot" and key in _GRID_KEYS]
    if unread:
        raise ConfigError(f"invalid value for '{unread[0]}': ic = {cfg.ic} does not read it")
    return cfg


def build_controls(cfg: RunConfig) -> StepControls:
    return StepControls(scheme=cfg.scheme, dt=cfg.dt, picard_tol=cfg.picard_tol)


def _center(cfg: RunConfig) -> tuple[float, ...]:
    c = cfg.ic_center
    if len(c) == 1 and cfg.dim > 1:
        c = c * cfg.dim
    if len(c) != cfg.dim:
        raise ConfigError(f"invalid value for 'ic_center': expected {cfg.dim} coordinates")
    return c


def build_problem(cfg: RunConfig) -> tuple[Grid, Field, DiagnosticsRecord]:
    """Materialize the grid and initial field described by a config, with the t = 0
    diagnostics record that it checks. Builder failures (say, a missing snapshot), the
    semi-implicit scheme on a 2D grid, a CFL step of 0, work over the cell-step budget
    and initial diagnostics that overflow raise ``ConfigError``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            grid, field = _build_problem(cfg)
            initial = record(field)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build the initial condition: {exc}") from None
    if cfg.scheme == "semi_implicit" and grid.dim != 1:
        raise ConfigError(f"invalid value for 'scheme': semi_implicit is 1D only, the grid is {grid.dim}D")
    ceiling = cfl_dt(grid, cfg.eps)
    if not ceiling > 0.0:
        raise ConfigError(f"the CFL step safety*h^2/(2d(1+eps)) underflows to 0 "
                          f"(h = {grid.h}, eps = {cfg.eps})")
    check_cell_steps(field.values.size, cfg.t_end, cfg.dt or ceiling)
    overflow = [name for name, value in zip(COLUMNS, vars(initial).values()) if not np.isfinite(value)]
    if overflow:
        raise ConfigError(f"initial diagnostics are not finite ({', '.join(overflow)}); "
                          "shrink the box, the mass or the amplitude")
    return grid, field, initial


def _half_width(cfg: RunConfig) -> float:
    return cfg.box_halfwidth if cfg.box_halfwidth is not None else 5.0 / max(cfg.chi, 1e-300)


def _build_problem(cfg: RunConfig) -> tuple[Grid, Field]:
    if cfg.ic == "snapshot":
        field = load_snapshot(cfg.ic_path)
        return field.grid, field

    grid = make_grid(cfg.dim, _half_width(cfg), cfg.cells)
    center = _center(cfg)

    if cfg.ic == "uniform":
        value = 1.0 if cfg.ic_amplitude is None else cfg.ic_amplitude
        return grid, Field.density(grid, np.full(grid.shape, float(value)))
    if cfg.ic == "spike":
        return grid, poly_spike(grid, cfg.ic_width, cfg.ic_p, center=center, p_norm=cfg.ic_pnorm)
    if cfg.ic == "multi_peak":
        return grid, multi_peak(grid, cfg.chi, cfg.ic_centers, cfg.ic_amplitudes, cfg.ic_mass)

    if cfg.ic_amplitude is not None and cfg.ic_mass is not None:
        raise ConfigError("invalid value for 'ic_amplitude': give mass or amplitude, not both")
    mass = 1.0 if cfg.ic_mass is None and cfg.ic_amplitude is None else cfg.ic_mass
    if cfg.ic == "gaussian":
        return grid, gaussian_bump(grid, cfg.ic_width, center=center, mass=mass,
                                   amplitude=cfg.ic_amplitude)
    peak = single_peak if cfg.ic == "single_peak" else factorized
    return grid, peak(grid, cfg.chi, center, 1.0 if cfg.ic_amplitude is None else cfg.ic_amplitude, mass)
