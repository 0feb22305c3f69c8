"""2D Navier-Stokes vorticity toolkit for measure-valued initial data."""

from .errors import (CirculationError, ConvergenceError, DegenerateError,
                     DomainError, MarginError, MismatchError, Oseen2dError,
                     StabilityError)
from .field import Grid, ScalarField, lp_norm, weighted_norm
from .measure import (AtomicDecomposition, FiniteMeasure, atomic_norm,
                      decompose, heat_smooth, total_variation)
from .oseen import OseenVortex, oseen_fields
from .propagators import StepperConfig, Trajectory, fit_decay
from .selfsim import semigroup_apply
from .solver import SolverRun, solve_cauchy

__all__ = [
    "Grid", "ScalarField", "lp_norm", "weighted_norm",
    "FiniteMeasure", "AtomicDecomposition", "total_variation", "atomic_norm",
    "decompose", "heat_smooth",
    "OseenVortex", "oseen_fields",
    "semigroup_apply",
    "StepperConfig", "Trajectory", "fit_decay",
    "SolverRun", "solve_cauchy",
    "Oseen2dError", "DomainError", "MarginError", "CirculationError",
    "StabilityError", "DegenerateError", "MismatchError",
    "ConvergenceError",
]

__version__ = "0.1.0"
