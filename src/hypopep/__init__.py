"""Worst-case analysis of fixed-step gradient descent on smooth functions
with curvature in [mu, L], mu <= 0 < L: closed-form rates, exact
worst-case SDPs, and constructive tight instances."""

from .core import (
    CurvatureClass,
    NumeratorKind,
    OracleTriplet,
    RateRegime,
    RateResult,
    StepSchedule,
    TripletSet,
    ValidationError,
    validate_class,
)
from .rates import (
    kappa_bar,
    nstep_bound,
    one_step_p,
    optimal_step,
    step_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureClass",
    "NumeratorKind",
    "OracleTriplet",
    "RateRegime",
    "RateResult",
    "StepSchedule",
    "TripletSet",
    "ValidationError",
    "validate_class",
    "kappa_bar",
    "nstep_bound",
    "one_step_p",
    "optimal_step",
    "step_threshold",
    "__version__",
]
