"""Closed-form rate engine for the gradient method on curvature classes [mu, L].

Everything here is expressed in terms of kappa = mu/L <= 0 and normalized
steps h (actual step h/L). The per-step constant p(h, kappa) and the step
threshold h_bar(kappa) drive all N-step bounds; the optimal constant step
maximizes p over the admissible range.

kappa must lie in [KAPPA_MIN, 0] with KAPPA_MIN = -1e8; a smaller kappa
raises KappaBelowFloor. At the floor p(h, kappa) and h_bar(kappa) are within
about 1e-8 relative of their kappa -> -inf limits, which the unbounded-below
class gives. Below KAPPA_LARGE = -1e6, h_bar and the optimal step use forms
that do not cancel; above it they keep the forms that ``results/`` was
computed with, and the two forms agree to 1e-10 at the switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    CurvatureClass,
    NumeratorKind,
    RateRegime,
    RateResult,
    StepSchedule,
    ValidationError,
    validate_delta,
)


class PositiveKappa(ValidationError):
    pass


class KappaBelowFloor(ValidationError):
    pass


class StepNonPositive(ValidationError):
    pass


class StepAboveThreshold(ValidationError):
    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class StepOutOfRange(ValidationError):
    pass


class BoundOverflow(ValidationError):
    """The bound 2 L delta / D exceeds the largest double."""


class RootNotBracketed(RuntimeError):
    pass


class InsufficientData(ValidationError):
    pass


class BranchMismatch(RuntimeError):
    pass


KAPPA_MIN = -1e8
KAPPA_LARGE = -1e6


def _check_kappa(kappa: float) -> None:
    if not -math.inf < kappa <= 0.0:
        raise PositiveKappa(f"kappa must be finite and <= 0, got {kappa}")
    if kappa < KAPPA_MIN:
        raise KappaBelowFloor(
            f"kappa={kappa} is below {KAPPA_MIN:g}; "
            "use the unbounded-below class for the kappa -> -inf limit"
        )


def step_threshold(kappa: float, *, unbounded_below: bool = False) -> float:
    """Largest admissible normalized step h_bar(kappa) in [3/2, 2).

    For the unbounded-below limit the open-limit value 2 is returned. Below
    KAPPA_LARGE the denominator 1 + kappa + sqrt(1 - kappa + kappa^2) would
    cancel, so the equal form (1 + kappa - sqrt(...)) / kappa is used.
    """
    if unbounded_below:
        return 2.0
    _check_kappa(kappa)
    s = math.sqrt(1.0 - kappa + kappa * kappa)
    if kappa < KAPPA_LARGE:
        return (1.0 + kappa - s) / kappa
    return 3.0 / (1.0 + kappa + s)


def one_step_p(h: float, kappa: float) -> float:
    """Two-branch per-step constant p(h, kappa), the denominator contribution
    (scaled by 2L) of one gradient step; both branches agree at h = 1."""
    _check_kappa(kappa)
    if h <= 0:
        raise StepNonPositive(f"step must be positive, got {h}")
    h_bar = step_threshold(kappa)
    if h > h_bar + 1e-15:
        raise StepAboveThreshold(f"h={h} exceeds h_bar(kappa={kappa})={h_bar}")
    if h <= 1.0:
        return 2.0 * h - h * h * (-kappa) / (1.0 - kappa)
    return third_regime_slope(kappa, h)


def one_step_p_unbounded(h: float) -> float:
    """Limit of p(h, kappa) as kappa -> -inf; valid for h in (0, 2)."""
    if h <= 0:
        raise StepNonPositive(f"step must be positive, got {h}")
    if h >= 2.0:
        raise StepAboveThreshold(f"h={h} not below the limit threshold 2")
    return 2.0 * h - h * h


def nstep_bound(
    cls: CurvatureClass,
    sched: StepSchedule,
    delta: float,
    kind: NumeratorKind,
) -> RateResult:
    """N-step upper bound 2*L*delta / D on the minimum squared gradient norm.

    D is the sum of per-step constants p(h_i, kappa), plus 1 for the
    gap-to-optimal initial condition. A bound that overflows a double, as
    with a subnormal step sum and the gap to the last iterate, raises
    BoundOverflow.
    """
    validate_delta(delta)
    ps = []
    for i, h in enumerate(sched.steps):
        try:
            if cls.unbounded_below:
                ps.append(one_step_p_unbounded(h))
            else:
                ps.append(one_step_p(h, cls.kappa))
        except StepAboveThreshold as exc:
            raise StepAboveThreshold(f"step index {i}: {exc}", index=i) from exc
    denom = sum(ps)
    if kind == NumeratorKind.gap_to_optimal:
        denom += 1.0
    bound = 2.0 * cls.L * delta / denom
    if math.isinf(bound):
        raise BoundOverflow(f"2*L*delta/D overflows with D={denom!r}, L={cls.L!r}, delta={delta!r}")
    regime = RateRegime.short if max(sched.steps) <= 1.0 else RateRegime.mid
    return RateResult(
        bound=bound,
        denominator=denom,
        numerator_kind=kind,
        regime=regime,
        per_step_p=tuple(ps),
    )


def kappa_bar() -> float:
    """Curvature ratio below which the optimal step is interior (approx -0.1001)."""
    s5 = math.sqrt(5.0)
    return (-9.0 - 5.0 * s5 + math.sqrt(190.0 + 90.0 * s5)) / 4.0


def _optimal_step_cubic(h: float, kappa: float) -> float:
    """Derivative of the mid-range objective 2h + kappa*h^3/(2-(1+kappa)h)."""
    k = kappa
    return -k * (1 + k) * h**3 + (3 * k + (1 + k) ** 2) * h**2 - 4 * (1 + k) * h + 4


def _optimal_step_root(kappa: float) -> float:
    """Root of the optimal-step cubic on [1, 2).

    The cubic equals 1 at h = 1 with slope -(kappa - 1)(kappa - 2), but its
    terms are of order kappa^2, so for very negative kappa its computed sign
    at h = 1 is rounding noise (the bracket fails from kappa ~ -7.7e7). Below
    KAPPA_LARGE the Newton step from h = 1 is used; its error, of order
    kappa^-4, is below the rounding of 1 + 1/kappa^2.
    """
    if kappa < KAPPA_LARGE:
        return 1.0 + 1.0 / ((kappa - 1.0) * (kappa - 2.0))
    return solve_bracketed_root(lambda h: _optimal_step_cubic(h, kappa), 1.0, 2.0 - 1e-12)


def solve_bracketed_root(func, lo: float, hi: float, tol: float = 1e-14, max_iter: int = 200) -> float:
    """Safeguarded bisection with a Newton-like secant polish on [lo, hi]."""
    flo, fhi = func(lo), func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootNotBracketed(f"no sign change on [{lo}, {hi}]")
    a, b, fa, fb = lo, hi, flo, fhi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        # secant candidate, kept only if it stays inside the bracket
        sec = b - fb * (b - a) / (fb - fa) if fb != fa else mid
        x = sec if a < sec < b else mid
        fx = func(x)
        if fx == 0.0 or (b - a) < tol * max(1.0, abs(x)):
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    return 0.5 * (a + b)


class OptimalStepBranch(str, Enum):
    cubic_root = "cubic_root"
    threshold = "threshold"
    asymptotic_conjectured = "asymptotic_conjectured"


@dataclass(frozen=True)
class OptimalStep:
    h_star: float
    branch: OptimalStepBranch


class OptimalStepMode(str, Enum):
    theorem = "theorem"
    asymptotic = "asymptotic"


def optimal_step(kappa: float, mode: OptimalStepMode = OptimalStepMode.theorem) -> OptimalStep:
    """Optimal constant step size for the worst-case rate.

    ``theorem`` mode maximizes p(h, kappa) over (0, h_bar(kappa)]: below
    kappa_bar the maximizer is an interior cubic root, above it the
    threshold h_bar(kappa) itself. ``asymptotic`` mode drops the threshold
    (conjectured large-step regime) and returns the cubic root on [1, 2).
    """
    mode = OptimalStepMode(mode)
    _check_kappa(kappa)
    if mode == OptimalStepMode.asymptotic:
        if kappa >= 0:
            raise PositiveKappa("asymptotic mode requires kappa < 0")
        return OptimalStep(h_star=_optimal_step_root(kappa),
                           branch=OptimalStepBranch.asymptotic_conjectured)
    if kappa > kappa_bar():
        return OptimalStep(h_star=step_threshold(kappa), branch=OptimalStepBranch.threshold)
    return OptimalStep(h_star=_optimal_step_root(kappa), branch=OptimalStepBranch.cubic_root)


def third_regime_slope(kappa: float, h: float) -> float:
    """Linear-in-N denominator growth of the conjectured third-regime bound.

    The same expression is the h > 1 branch of ``one_step_p``; beyond
    h_bar(kappa) it is conjectured to remain the per-step growth.
    """
    return h * (2.0 - h) * (2.0 - kappa * h) / (2.0 - (1.0 + kappa) * h)


def conjectured_bound_convex(
    h: float, n: int, L: float, delta: float, kind: NumeratorKind
) -> RateResult:
    """Conjectured convex bound for constant steps h in (3/2, 2)."""
    if not (1.5 < h < 2.0):
        raise StepOutOfRange(f"h={h} outside (1.5, 2)")
    geom = (1.0 - h) ** (-2 * n)
    if kind == NumeratorKind.gap_to_optimal:
        denom = min(geom, 1.0 + 2.0 * n * h)
    else:
        denom = min(geom - 1.0, 2.0 * n * h)
    return RateResult(
        bound=2.0 * L * delta / denom,
        denominator=denom,
        numerator_kind=kind,
        regime=RateRegime.convex_large,
        conjectured=True,
    )


def conjectured_bound_third_regime(
    h: float,
    n: int,
    cls: CurvatureClass,
    delta: float,
    r_value: float,
    kind: NumeratorKind,
) -> RateResult:
    """Conjectured bound for constant steps beyond h_bar(kappa).

    The intercept r of the linear-in-N branch is not known analytically and
    must be supplied (see ``fit_r``).
    """
    kappa = cls.kappa
    h_bar = step_threshold(kappa)
    if not (h_bar < h < 2.0):
        raise StepOutOfRange(f"h={h} outside (h_bar={h_bar}, 2)")
    geom = (1.0 - h) ** (-2 * n)
    lin = r_value + n * third_regime_slope(kappa, h)
    if kind == NumeratorKind.gap_to_optimal:
        denom = min(geom, lin)
    else:
        denom = min(geom - 1.0, lin - 1.0)
    return RateResult(
        bound=2.0 * cls.L * delta / denom,
        denominator=denom,
        numerator_kind=kind,
        regime=RateRegime.large,
        conjectured=True,
    )


@dataclass(frozen=True)
class FitRResult:
    r: float
    slope_analytic: float
    slope_observed: float
    residuals: tuple[float, ...]
    used_n: tuple[int, ...]


def fit_r(
    cls: CurvatureClass,
    h: float,
    pep_values: list[tuple[int, float]],
    delta: float = 1.0,
    slope_rel_tol: float = 0.01,
) -> FitRResult:
    """Estimate the third-regime intercept r from solved PEP optima.

    Each (N, value) pair yields an implied denominator D(N) = 2*L*delta/value,
    modeled as D(N) = r + N*slope with the slope fixed analytically. Points on
    the geometric branch (where (1-h)^(-2N) is the smaller denominator at the
    fitted r) are excluded in a second pass.
    """
    kappa = cls.kappa
    slope = third_regime_slope(kappa, h)
    points = [(int(n), 2.0 * cls.L * delta / v) for n, v in pep_values]
    if len(points) < 2:
        raise InsufficientData("need at least 2 PEP optima")

    def fit(pts):
        return sum(d - n * slope for n, d in pts) / len(pts)

    used = list(points)
    for _ in range(10):
        r = fit(used)
        kept = [(n, d) for n, d in used if (r + n * slope) * (1.0 - h) ** (2 * n) <= 1.0]
        if len(kept) < 2:
            raise InsufficientData("fewer than 2 points on the linear-in-N branch")
        if kept == used:
            break
        used = kept
    r = fit(used)

    ns = [n for n, _ in used]
    ds = [d for _, d in used]
    n_mean = sum(ns) / len(ns)
    d_mean = sum(ds) / len(ds)
    var = sum((n - n_mean) ** 2 for n in ns)
    slope_obs = (
        sum((n - n_mean) * (d - d_mean) for n, d in used) / var if var > 0 else float("nan")
    )
    if var > 0 and abs(slope_obs - slope) > slope_rel_tol * abs(slope):
        raise BranchMismatch(
            f"observed slope {slope_obs} deviates from analytic slope {slope} by more than "
            f"{slope_rel_tol:.0%}"
        )
    residuals = tuple(d - (r + n * slope) for n, d in used)
    return FitRResult(
        r=r,
        slope_analytic=slope,
        slope_observed=slope_obs,
        residuals=residuals,
        used_n=tuple(ns),
    )
