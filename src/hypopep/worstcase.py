"""One-dimensional piecewise-quadratic functions attaining the short-step
worst-case rate exactly.

For step sizes h_i <= 1 the rate bound is tight: the functions built here
make every gradient-method iterate equally bad (constant gradient magnitude
U) while consuming exactly the allowed value gap. Pieces alternate between
the lower curvature mu and the upper curvature L, with quadratic caps of
curvature L closing both tails.

``verify_tightness`` checks a construction at its own iterates, by the
interpolation conditions of Taylor, Hendrickx & Glineur (Math. Prog. 2017):
each gradient step from a constructed iterate lands on the next one, every
gradient has magnitude U, the triplets interpolate (``check_interpolable``
over all ordered pairs, in memory that does not grow with N) and the value
gap is used up. No gradient method is run. It checks the unit construction,
L = delta = 1: in user units |x_i - x_j|^2 can overflow a double.

Every kappa in [-inf, 0] is built. The concave pieces are t h_i U / L wide,
t = 1 / (1 - kappa), and vanish at t = 0, the class with only the upper bound L.
Each inflection is an offset from the next iterate, and ``eval`` gives a
breakpoint to the piece that ends there, so each iterate x_i, i < N, is
evaluated on the curvature-L piece centred at it, however narrow the concave
piece beside it.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate

import numpy as np

from .core import (
    CurvatureClass,
    NumeratorKind,
    StepSchedule,
    TripletSet,
    ValidationError,
    rate_class,
    user_units,
    validate_delta,
)
from .interpolation import check_interpolable
from .rates import nstep_bound


SAMPLE_PAD = 0.5  # sample_csv's margin each side, as a share of the iterate span + 1


class StepAboveOne(ValidationError):
    pass


@dataclass(frozen=True)
class Piece:
    """Quadratic piece f(x) = value + slope (x - center) + c/2 (x - center)^2."""

    lo: float
    hi: float
    curvature: float
    center: float
    slope: float
    value: float

    def eval(self, x: float) -> tuple[float, float]:
        d = x - self.center
        return (
            self.value + self.slope * d + 0.5 * self.curvature * d * d,
            self.slope + self.curvature * d,
        )


@dataclass(frozen=True)
class WorstCaseFunction:
    """A tight worst-case instance with its trajectory data."""

    pieces: tuple[Piece, ...]
    xs: tuple[float, ...]        # iterates x_0 > x_1 > ... > x_N
    x_bars: tuple[float, ...]    # inflection points, one per step
    fs: tuple[float, ...]        # values at the iterates
    U: float                     # common gradient magnitude at the iterates
    kind: NumeratorKind
    cls: CurvatureClass
    sched: StepSchedule
    delta: float
    breakpoints: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # upper ends of the pieces, computed once so that eval is O(log N)
        object.__setattr__(self, "breakpoints", tuple(p.hi for p in self.pieces))

    def eval(self, x: float) -> tuple[float, float]:
        """Value and derivative at x; a breakpoint belongs to the piece that ends there."""
        idx = bisect.bisect_left(self.breakpoints, x)
        idx = min(idx, len(self.pieces) - 1)
        return self.pieces[idx].eval(float(x))

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "U": self.U,
                "mu": self.cls.mu if math.isfinite(self.cls.mu) else None,
                "L": self.cls.L,
                "delta": self.delta,
                "steps": list(self.sched.steps),
                "iterates": list(self.xs),
                "inflections": list(self.x_bars),
                "values": list(self.fs),
                "pieces": [{k: v if math.isfinite(v) else None for k, v in asdict(p).items()}
                           for p in self.pieces],  # strict JSON: the tails' infinite ends are null
            }
        )

    def sample_csv(self, path: str, num: int = 400) -> None:
        """Write a (x, f, grad) sample table spanning the breakpoint range."""
        if num < 0:
            raise ValidationError(f"the sample count must be nonnegative, got {num}")
        lo = min(self.xs) - SAMPLE_PAD * (self.xs[0] - self.xs[-1] + 1.0)
        hi = max(self.xs) + SAMPLE_PAD * (self.xs[0] - self.xs[-1] + 1.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "f", "grad"])
            for x in np.linspace(lo, hi, num):
                f, g = self.eval(float(x))
                w.writerow([f"{x:.17g}", f"{f:.17g}", f"{g:.17g}"])


def build_worst_case(
    cls: CurvatureClass, sched: StepSchedule, delta: float, kind: NumeratorKind
) -> WorstCaseFunction:
    """Assemble the tight piecewise-quadratic instance for h_i <= 1.

    The gradient magnitude U is the square root of the rate bound; iterates step right-to-left
    toward the flat tail (gap_to_last) or the global minimizer at the origin (gap_to_optimal).
    ScaleOverflow if the bound or x_0, the largest iterate, is not finite and nonzero.
    """
    rate_class(cls)
    validate_delta(delta)
    for i, h in enumerate(sched.steps):
        if h > 1.0:
            raise StepAboveOne(f"step h_{i}={h} exceeds 1; no construction is known there")
    mu, L = cls.mu, cls.L
    N = sched.n
    res = nstep_bound(cls, sched, delta, kind)
    ps = res.per_step_p
    U = math.sqrt(res.bound)
    opt = kind == NumeratorKind.gap_to_optimal

    # iterates: x_N is 0 (last) or U/L (optimal, one more step to the minimum)
    base = U / L if opt else 0.0
    xs = [base] * (N + 1)
    for i in range(N - 1, -1, -1):
        xs[i] = xs[i + 1] + (U / L) * sched.steps[i]
    user_units(xs[0], math.sqrt(2.0 / res.denominator) * (sum(sched.steps) + opt), "x_0", L, delta)
    fs = [delta - (U * U / (2.0 * L)) * s for s in accumulate(ps, initial=0.0)]
    x_bars = [xs[i + 1] + cls.t * (sched.steps[i] / L) * U for i in range(N)]

    pieces = []
    if opt:
        # left cap with minimizer (0, 0)
        pieces.append(Piece(lo=-math.inf, hi=xs[N], curvature=L, center=0.0, slope=0.0, value=0.0))
    else:
        # left cap with minimizer (-U/L, -U^2/(2L)); value 0 and slope U at x_N = 0
        pieces.append(
            Piece(lo=-math.inf, hi=xs[N], curvature=L, center=-U / L, slope=0.0,
                  value=-U * U / (2.0 * L))
        )
    for i in range(N - 1, -1, -1):
        if x_bars[i] > xs[i + 1]:
            pieces.append(
                Piece(lo=xs[i + 1], hi=x_bars[i], curvature=mu, center=xs[i + 1],
                      slope=U, value=fs[i + 1])
            )
        if xs[i] > x_bars[i]:
            pieces.append(
                Piece(lo=x_bars[i], hi=xs[i], curvature=L, center=xs[i], slope=U, value=fs[i])
            )
    pieces.append(Piece(lo=xs[0], hi=math.inf, curvature=L, center=xs[0], slope=U, value=fs[0]))

    return WorstCaseFunction(
        pieces=tuple(pieces),
        xs=tuple(xs),
        x_bars=tuple(x_bars),
        fs=tuple(fs),
        U=U,
        kind=kind,
        cls=cls,
        sched=sched,
        delta=delta,
    )


@dataclass(frozen=True)
class TightnessReport:
    """Residuals of the four bound-attainment checks."""

    passed: bool
    iterate_residual: float
    bound_residual: float
    interpolation_violation: float
    gap_residual: float
    U: float
    tol: float


def verify_tightness(
    cls: CurvatureClass,
    sched: StepSchedule,
    delta: float,
    kind: NumeratorKind,
    tol: float = 1e-9,
) -> TightnessReport:
    """Build the unit instance (L = delta = 1) and check bound attainment there.

    The function is evaluated once at each constructed iterate x_i. Checks:
    (a) each step x_i - h_i g_i lands on x_{i+1} (``iterate_residual`` is
    the largest one-step residual, scaled by max(1, |x_0|)), (b) the minimum
    squared gradient equals U^2, (c) the evaluated triplets, with (0, 0, 0)
    added for gap-to-optimal, satisfy the interpolation conditions
    (``interpolation_violation`` is their largest violation), (d) the
    full value gap 1 is consumed. A gradient run from x_0 visits exactly
    these iterates iff every single step does, so (a) states tightness
    without following a float run that amplifies rounding by |1 - h kappa|
    per step on a concave piece. U is reported in user units, sqrt(L delta)
    times the unit one, through ``core.user_units``.
    """
    validate_delta(delta)
    unit = replace(cls, mu=cls.mu / cls.L, L=1.0)
    wcf = build_worst_case(unit, sched, 1.0, kind)
    fs, gs = zip(*(wcf.eval(x) for x in wcf.xs))
    it_res = max(
        abs(x1 - (x0 - h * g)) for x0, x1, h, g in zip(wcf.xs, wcf.xs[1:], sched.steps, gs)
    ) / max(1.0, abs(wcf.xs[0]))
    bound_res = abs(min(g * g for g in gs) - wcf.U**2) / max(1.0, wcf.U**2)
    opt = kind == NumeratorKind.gap_to_optimal
    # one row per iterate, and the minimizer (0, 0, 0) for gap-to-optimal
    X, G, F = np.array([v + ((0.0,) if opt else ()) for v in (wcf.xs, gs, fs)])
    violation = check_interpolable(TripletSet(X[:, None], G[:, None], F), unit)
    gap_res = abs((fs[0] if opt else fs[0] - fs[-1]) - 1.0)
    U = user_units(math.sqrt(cls.L) * math.sqrt(delta) * wcf.U, wcf.U, "U", cls.L, delta)
    return TightnessReport(
        passed=all(r <= tol for r in (it_res, bound_res, violation, gap_res)),
        iterate_residual=it_res,
        bound_residual=bound_res,
        interpolation_violation=violation,
        gap_residual=gap_res,
        U=U,
        tol=tol,
    )
