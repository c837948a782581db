"""Shared domain types: curvature classes, step schedules, oracle triplets.

Oracle triplets (x_i, g_i, f_i) are held as stacked rows in a ``TripletSet``,
checked once for shape and finiteness; ``OracleTriplet`` is the view of one row.
"""

from __future__ import annotations

import json
import math
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


class PositiveMu(ValidationError):
    pass


class BadStepSchedule(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonFiniteTriplet(ValidationError):
    pass


class ScaleOverflow(ValidationError):
    """An answer is not a finite double in user units, or is 0 there but not at unit scale."""


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


def user_units(value: float, unit: float, what: str, L: float, delta: float) -> float:
    """``value``, the answer ``what`` at (L, delta), ``unit`` at L = delta = 1: every route's one
    exit from unit scale. ScaleOverflow unless it is a finite double, nonzero where ``unit`` is."""
    if not math.isfinite(value) or value == 0.0 != unit:
        raise ScaleOverflow(f"{what} at L={L!r}, delta={delta!r} is {value!r} (unit scale {unit!r})")
    return value


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
    short = "short"          # h <= 1
    mid = "mid"              # 1 < h <= h_bar(kappa)
    large = "large"          # h > h_bar(kappa), conjectured


@dataclass(frozen=True)
class RateResult:
    """An upper bound on the minimum squared gradient norm over the run."""

    bound: float
    denominator: float
    regime: RateRegime
    conjectured: bool = False
    per_step_p: tuple[float, ...] = field(default=())
