"""Worst-case analysis of fixed-step gradient descent on smooth functions
with curvature in [mu, L], mu <= 0 < L: closed-form rates, exact
worst-case SDPs, and constructive tight instances.

``import hypopep`` executes only ``core`` and ``rates``, which need no
numpy. The numpy modules (``interpolation``, ``sdpsolver``, ``pep``,
``worstcase``, ``gmlab``) are registered with ``importlib.util.LazyLoader``
and execute on their first attribute access. So the closed-form commands
(``rate``, ``optstep``, ``sweep --target rate``) start without numpy's
import, about half of their wall time. Registering the modules, rather than
importing them inside functions, keeps every ``hypopep.<module>`` in
``sys.modules`` and on the package from the start, where code that patches
or inspects the modules looks them up (the benchmark's tracer does). ``cli``
is not registered: ``python -m hypopep.cli`` would then warn that the module
is in ``sys.modules`` before it runs. A first use executes the module, so a
program that calls hypopep from several threads should touch the modules
it needs before it starts them (hypopep itself starts no threads).
"""

import importlib.util
import sys

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


def _lazy(name: str):
    """Register the submodule ``name``, to execute on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


interpolation, sdpsolver, pep, worstcase, gmlab = map(
    _lazy, ("interpolation", "sdpsolver", "pep", "worstcase", "gmlab"))

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
