"""Shared domain types: curvature classes, step schedules, oracle triplets.

Oracle triplets (x_i, g_i, f_i) are held as stacked rows in a ``TripletSet``,
checked once for shape and finiteness; ``OracleTriplet`` is the view of one row.

Every route computes at unit scale, L = delta = 1, and its answers leave it through
``to_user_units``, the one map to (L, delta) by degree, and its check ``user_units``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np


# The three bases of the CLI's exit codes: ValidationError 2, NumericalFailure
# 3, CheckFailure 4. They live here so the CLI maps an error to its code
# without loading the numpy modules that raise the subclasses.


class ValidationError(ValueError):
    """Base class for all typed input-rejection errors."""


class NumericalFailure(RuntimeError):
    """A computation on valid input failed: the solver, a non-finite value, a Gram matrix."""


class CheckFailure(RuntimeError):
    """A computed answer failed a check: tightness, interpolation, the fitted branch."""


class NonPositiveL(ValidationError):
    pass


class MuAboveL(ValidationError):
    pass


class PositiveKappa(ValidationError):
    """kappa = mu / L > 0, outside the rate analysis (``validate_class``)."""


class BadStepSchedule(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonFiniteTriplet(ValidationError):
    pass


class ScaleOverflow(ValidationError):
    """An answer is not finite in user units, or is 0 or subnormal there but not at unit scale."""


@dataclass(frozen=True)
class CurvatureClass:
    """A curvature interval [mu, L] with finite L > 0 and mu < L; mu = -inf is the
    class with only the upper bound L, where kappa = -inf and t = 0."""

    mu: float
    L: float

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:
            raise NonPositiveL(f"L must be positive and finite, got {self.L}")
        if math.isnan(self.mu):  # NaN passes the test below
            raise ValidationError(f"mu must be a number, got {self.mu}")
        if self.mu >= self.L:  # at mu = L, t = 1 / (1 - kappa) has no value
            raise MuAboveL(f"mu={self.mu} is not below L={self.L}")

    @property
    def kappa(self) -> float:
        return self.mu / self.L

    @property
    def t(self) -> float:
        """t = 1 / (1 - kappa), in [0, 1] for kappa <= 0: 0 at kappa = -inf."""
        return 1.0 / (1.0 - self.kappa)


def validate_class(mu: float, L: float) -> CurvatureClass:
    """The class [mu, L] of the rate analysis, which requires kappa <= 0: NonPositiveL,
    MuAboveL or PositiveKappa on invalid input."""
    return rate_class(CurvatureClass(mu=mu, L=L))


def rate_class(cls: CurvatureClass) -> CurvatureClass:
    """``cls`` if the rate analysis holds on it (kappa <= 0), else PositiveKappa."""
    if cls.mu > 0.0:
        raise PositiveKappa(f"the rate analysis requires kappa <= 0, got mu={cls.mu}, L={cls.L}")
    return cls


def validate_delta(delta: float) -> None:
    """Reject an initial gap delta that is not positive and finite."""
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"delta must be positive and finite, got {delta}")


def user_units(value, unit, what: str, L: float, delta: float):
    """``value``, the answer ``what`` at (L, delta), ``unit`` at L = delta = 1: every route's one
    exit from unit scale. Each is a float or an array, and an array is one answer. ScaleOverflow
    unless every entry is finite and the largest magnitude is nonzero where ``unit``'s is and
    normal (at least ``sys.float_info.min``, so with all its digits) where ``unit``'s is. A smaller
    entry may be subnormal, as delta times the rounding noise of an exact 0 can be."""
    if isinstance(value, float):
        finite, big, unit_big = math.isfinite(value), abs(value), abs(unit)
        shown = f"is {value!r} (unit scale {unit!r})"
    else:
        import numpy as np

        finite = bool(np.isfinite(value).all())
        big, unit_big = (float(np.abs(a).max(initial=0.0)) for a in (value, unit))
        shown = f"reach {big!r} in magnitude (unit scale {unit_big!r})"
    if not finite or big == 0.0 != unit_big or big < sys.float_info.min <= unit_big:
        raise ScaleOverflow(f"{what} at L={L!r}, delta={delta!r} {shown}")
    return value


# The worst case is homogeneous in (L, delta): an answer of each degree is its unit-scale value
# times the factor below (Drori & Teboulle 2014).
_DEGREE_FACTORS = {
    "x": lambda L, delta: math.sqrt(delta) / math.sqrt(L),   # iterates
    "g": lambda L, delta: math.sqrt(L) * math.sqrt(delta),   # gradients
    "f": lambda L, delta: delta,                             # values
    "g2": lambda L, delta: L * delta,                        # squared gradients
}


def to_user_units(unit, degree: str, what: str, L: float, delta: float):
    """The unit-scale answer ``unit``, a float or an array-like that is one answer, at (L, delta):
    times the factor of its ``degree``, then through ``user_units``. A float gives a float, an
    array-like an ndarray."""
    factor = _DEGREE_FACTORS[degree](L, delta)
    if isinstance(unit, float):  # a numpy float too, whose overflow would warn, not give inf
        return user_units(factor * float(unit), unit, what, L, delta)
    import numpy as np

    unit = np.asarray(unit, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0 is refused below
        value = factor * unit
    return user_units(value, unit, what, L, delta)


@dataclass(frozen=True)
class StepSchedule:
    """Normalized step sizes h_0..h_{N-1}; the actual step is h_i / L."""

    steps: tuple[float, ...]

    def __post_init__(self):
        if len(self.steps) < 1:
            raise BadStepSchedule("schedule must contain at least one step")
        for i, h in enumerate(self.steps):
            if not (0.0 < h < 2.0):
                raise BadStepSchedule(f"step h_{i}={h} outside (0, 2)")

    @property
    def n(self) -> int:
        return len(self.steps)

    @staticmethod
    def constant(h: float, n: int) -> "StepSchedule":
        return StepSchedule(tuple([h] * n))


class OracleTriplet(NamedTuple):
    """Row i of a TripletSet, ``ts[i]``: the oracle sample (x, g, f) at one point."""

    x: np.ndarray
    g: np.ndarray
    f: float


@dataclass(frozen=True)
class TripletSet:
    """Oracle samples (x_i, g_i, f_i) as stacked rows: points X and gradients
    G, both n x d, and values f of length n, with n >= 1 and every entry finite."""

    X: np.ndarray
    G: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        import numpy as np

        X, G, f = (np.asarray(a, dtype=float) for a in (self.X, self.G, self.f))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "f", f)
        if X.ndim != 2 or G.shape != X.shape or f.shape != X.shape[:1] or len(f) == 0:
            raise DimensionMismatch(f"need X, G of shape (n, d) and f of shape (n,), n >= 1; "
                                    f"got {X.shape}, {G.shape} and {f.shape}")
        if not (np.isfinite(X).all() and np.isfinite(G).all() and np.isfinite(f).all()):
            raise NonFiniteTriplet("oracle triplet has a NaN or infinite entry")

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return len(self.f)

    def __getitem__(self, i: int) -> OracleTriplet:
        return OracleTriplet(self.X[i], self.G[i], float(self.f[i]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "triplets": [
                    {"x": x, "g": g, "f": f}
                    for x, g, f in zip(self.X.tolist(), self.G.tolist(), self.f.tolist())
                ],
            }
        )


class NumeratorKind(str, Enum):
    """Which initial condition the rate numerator uses."""

    gap_to_last = "gap_to_last"      # f(x_0) - f(x_N) <= delta
    gap_to_optimal = "gap_to_optimal"  # f(x_0) - f_*   <= delta


class RateRegime(str, Enum):
    short = "short"          # every h <= 1: the rate is exact
    mid = "mid"              # every h in [1, h_bar(kappa)], one above 1: the rate is exact
    mixed = "mixed"          # steps on both sides of 1: the rate is an upper bound
    large = "large"          # h > h_bar(kappa), conjectured

    @classmethod
    def of(cls, steps: tuple[float, ...]) -> RateRegime:
        """The regime of a schedule whose steps are at most h_bar: short, mid or mixed."""
        return cls.short if max(steps) <= 1.0 else cls.mid if min(steps) >= 1.0 else cls.mixed


@dataclass(frozen=True)
class RateResult:
    """An upper bound on the minimum squared gradient norm over the run."""

    bound: float
    denominator: float
    regime: RateRegime
    per_step_p: tuple[float, ...] = field(default=())

    @property
    def conjectured(self) -> bool:
        return self.regime is RateRegime.large
