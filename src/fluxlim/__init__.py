"""Finite-volume toolbox for flux-limited degenerate diffusion.

The density evolves by a diffusion flux whose coefficient
(1 - chi*rho/|grad rho|)_+ switches off wherever the gradient is too small
relative to the density; an optional viscosity eps adds uniform diffusion
plus absorption. The package provides the grid and flux kernels, explicit
and semi-implicit steppers, the full diagnostic set (mass, Lp norms,
moments, entropy, Fisher information, relative entropy), stationary
profiles, and reproducible experiment harnesses with a CLI front end.
"""

from .config import ConfigError, RunConfig, build_controls, build_params, build_problem, parse_config
from .diagnostics import (DiagnosticsRecord, SupportMismatchError, dissipation_terms, l1_distance, record,
                          relative_entropy)
from .grid import Field, Grid, gradient_norm, integrate, load_snapshot, make_grid, save_snapshot
from .limiter import Params, limiter, monotone_gap, unclamped_gap
from .profiles import gaussian_bump, poly_spike, uniform_field
from .steady import SteadyProfileSpec, eikonal_residual, sample, stationarity_drift
from .stepping import (CflViolationError, NumericalFailureError, PicardDivergenceError, StepControls, Trajectory,
                       cfl_dt, march, run, run_batch, step_explicit, step_semi_implicit, time_mesh)
from .studies import StudyReport, Verdict, contraction_study, monotonicity_test, smoothing_study, viscosity_study

__version__ = "0.1.0"
