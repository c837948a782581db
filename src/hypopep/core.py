"""Shared domain types: curvature classes, step schedules, oracle triplets."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

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


class PositiveMu(ValidationError):
    pass


class BadStepSchedule(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonFiniteTriplet(ValidationError):
    pass


@dataclass(frozen=True)
class CurvatureClass:
    """A curvature interval [mu, L] with finite L > 0 and finite mu <= L.

    ``unbounded_below=True`` means mu = -infinity; ``mu`` and ``kappa`` must
    not be read in that case. The rates and the PEP rows read ``t``, which
    covers both cases.
    """

    mu: float
    L: float
    unbounded_below: bool = False

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:
            raise NonPositiveL(f"L must be positive and finite, got {self.L}")
        if self.unbounded_below:
            return
        if not math.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu}")
        if self.mu > self.L:
            raise MuAboveL(f"mu={self.mu} exceeds L={self.L}")

    @property
    def kappa(self) -> float:
        if self.unbounded_below:
            raise ValueError("kappa is -inf for an unbounded-below class")
        return self.mu / self.L

    @property
    def t(self) -> float:
        """t = 1 / (1 - kappa), in [0, 1] for kappa <= 0; 0 when unbounded below."""
        return 0.0 if self.unbounded_below else 1.0 / (1.0 - self.kappa)


def validate_class(mu: float, L: float, *, unbounded_below: bool = False) -> CurvatureClass:
    """Validate (mu, L) for the rate analysis, which requires mu <= 0.

    Raises NonPositiveL, MuAboveL or PositiveMu on invalid input.
    """
    cls = CurvatureClass(mu=mu, L=L, unbounded_below=unbounded_below)
    if not unbounded_below and mu > 0:
        raise PositiveMu(f"rate analysis requires mu <= 0, got mu={mu}")
    return cls


def validate_delta(delta: float) -> None:
    """Reject an initial gap delta that is not positive and finite."""
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"delta must be positive and finite, got {delta}")


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


@dataclass(frozen=True)
class OracleTriplet:
    """A first-order oracle sample (x, g, f) at one point; all entries finite."""

    x: np.ndarray
    g: np.ndarray
    f: float

    def __post_init__(self):
        import numpy as np

        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)
        if x.shape != g.shape or x.ndim != 1:
            raise DimensionMismatch(f"x shape {x.shape} != g shape {g.shape}")
        if not (np.isfinite(x).all() and np.isfinite(g).all() and np.isfinite(self.f)):
            raise NonFiniteTriplet("oracle triplet has a NaN or infinite entry")


@dataclass(frozen=True)
class TripletSet:
    """An indexed collection of oracle triplets sharing one dimension."""

    triplets: tuple[OracleTriplet, ...]

    def __post_init__(self):
        if len(self.triplets) == 0:
            raise DimensionMismatch("triplet set must be nonempty")
        d = self.triplets[0].x.shape[0]
        for t in self.triplets:
            if t.x.shape[0] != d:
                raise DimensionMismatch("triplets have mixed dimensions")

    @property
    def dim(self) -> int:
        return self.triplets[0].x.shape[0]

    def __len__(self) -> int:
        return len(self.triplets)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "triplets": [
                    {"x": t.x.tolist(), "g": t.g.tolist(), "f": t.f} for t in self.triplets
                ],
            }
        )


class NumeratorKind(str, Enum):
    """Which initial condition the rate numerator uses."""

    gap_to_last = "gap_to_last"      # f(x_0) - f(x_N) <= delta
    gap_to_optimal = "gap_to_optimal"  # f(x_0) - f_*   <= delta


class RateRegime(str, Enum):
    short = "short"          # h <= 1
    mid = "mid"              # 1 < h <= h_bar(kappa)
    large = "large"          # h > h_bar(kappa), conjectured
    convex_large = "convex_large"  # kappa = 0, h in (3/2, 2), conjectured


@dataclass(frozen=True)
class RateResult:
    """An upper bound on the minimum squared gradient norm over the run."""

    bound: float
    denominator: float
    numerator_kind: NumeratorKind
    regime: RateRegime
    conjectured: bool = False
    per_step_p: tuple[float, ...] = field(default=())
