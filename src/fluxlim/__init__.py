"""Finite-volume toolbox for flux-limited degenerate diffusion.

The density evolves by a diffusion flux whose coefficient
(1 - chi*rho/|grad rho|)_+ switches off wherever the gradient is too small
relative to the density; an optional viscosity eps adds uniform diffusion
plus absorption. The package provides the grid and flux kernels, explicit
and semi-implicit steppers, the full diagnostic set (mass, Lp norms,
moments, entropy, Fisher information, relative entropy), initial data
(the stationary peaks among them), and reproducible experiment harnesses
(``fluxlim.studies``) with a CLI front end (``fluxlim.cli``). The package
namespace keeps the entry points of a script: parse and build a config, run
it, read and write snapshots; everything else lives in its module.
"""

from .config import ConfigError, RunConfig, build_controls, build_problem, parse_config
from .grid import Field, load_snapshot, make_grid, save_snapshot
from .stepping import run

__version__ = "0.1.0"
