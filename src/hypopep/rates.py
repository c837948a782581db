"""Closed-form rate engine for the gradient method on curvature classes [mu, L].

The public functions take kappa = mu/L <= 0 and normalized steps h (actual
step h/L). Every closed form is written once, in t = 1/(1 - kappa) in
[0, 1], the parameter of the PEP layer's interpolation rows
(``CurvatureClass.t``): the per-step constant p(h, kappa), the step
threshold h_bar(kappa) and the optimal constant step. No form cancels
anywhere on [0, 1], so every kappa in [-inf, 0] is accepted; at kappa = -inf,
the class with only the upper bound L, t = 0, p = 2h - h^2 and h_bar = 2.
Each input rule is checked once, in ``core``: kappa <= 0 by ``rate_class``
(PositiveKappa), a step in (0, 2) by ``StepSchedule``, delta by ``validate_delta``.
The third regime's step rule, h_bar < h < 2, is checked once too, by ``third_regime_slope``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    CheckFailure,
    CurvatureClass,
    NumeratorKind,
    RateRegime,
    RateResult,
    ScaleOverflow,
    StepSchedule,
    ValidationError,
    rate_class,
    user_units,
    validate_class,
    validate_delta,
)


class StepAboveThreshold(ValidationError):
    pass


class StepOutOfRange(ValidationError):
    pass


class InsufficientData(ValidationError):
    pass


class BranchMismatch(CheckFailure):
    pass


SLOPE_REL_TOL = 0.01  # largest relative gap between fit_r's observed and analytic slopes
# The one boundary between the rate's regimes and the conjectured third one: a step up to
# this far (about 4 ulp) above h_bar still counts as h_bar; only a step past it is in the third.
H_BAR_SLACK = 1e-15
GEOM_REL_TOL = 1e-6  # fit_r's largest relative gap between D(N) and (1 - h)^(-2N) on that branch


def _threshold(t: float) -> float:
    """h_bar, the root in [3/2, 2] of (t - 1) h^2 - 2 (2t - 1) h + 3t.

    With q = sqrt(t^2 - t + 1) it is 2 - t / (1 + q). Nothing cancels for t
    in [0, 1], where t / (1 + q) <= 1/2: t = 0 gives 2 and t = 1 gives 3/2.
    """
    return 2.0 - t / (1.0 + math.sqrt(t * t - t + 1.0))


def _slope(t: float, h: float) -> float:
    """p for h > 1, h (2 - h)(2t + (1 - t) h) / (2t - (2t - 1) h)."""
    return h * (2.0 - h) * ((2.0 * t + (1.0 - t) * h) / (2.0 * t - (2.0 * t - 1.0) * h))


def _p(h: float, t: float) -> float:
    """p in t: 2h - (1 - t) h^2 for h <= 1, ``_slope`` above; both give 1 + t at h = 1."""
    h_bar = _threshold(t)
    if h > h_bar + H_BAR_SLACK:
        raise StepAboveThreshold(f"h={h} exceeds h_bar={h_bar} (t={t})")
    if h <= 1.0:
        return 2.0 * h - (1.0 - t) * h * h
    return _slope(t, h)


def step_threshold(kappa: float) -> float:
    """Largest admissible normalized step h_bar(kappa) in [3/2, 2]; it is 2 at
    kappa = -inf and rounds to 2 below about -4.5e15."""
    return _threshold(validate_class(kappa, 1.0).t)


def one_step_p(h: float, kappa: float) -> float:
    """Two-branch per-step constant p(h, kappa), the denominator contribution
    (scaled by 2L) of one gradient step; both branches agree at h = 1."""
    t = validate_class(kappa, 1.0).t
    StepSchedule((h,))  # BadStepSchedule unless 0 < h < 2
    return _p(h, t)


def nstep_bound(
    cls: CurvatureClass,
    sched: StepSchedule,
    delta: float,
    kind: NumeratorKind,
) -> RateResult:
    """N-step upper bound 2 L delta / D on the minimum squared gradient norm.

    D is the sum of per-step constants p(h_i) at the class's t, plus 1 for
    the gap-to-optimal initial condition. A bound that is not a finite
    nonzero double, as with a subnormal step sum and the gap to the last
    iterate, raises ScaleOverflow.
    """
    validate_delta(delta)
    t = rate_class(cls).t
    ps = []
    for i, h in enumerate(sched.steps):
        try:
            ps.append(_p(h, t))
        except StepAboveThreshold as exc:
            raise StepAboveThreshold(f"step index {i}: {exc}") from exc
    denom = sum(ps)
    if kind == NumeratorKind.gap_to_optimal:
        denom += 1.0
    return RateResult(
        bound=user_units(2.0 * (cls.L * delta / denom), 2.0 / denom, "the bound", cls.L, delta),
        denominator=denom,
        regime=RateRegime.of(sched.steps),
        per_step_p=tuple(ps),
    )


def kappa_bar() -> float:
    """Curvature ratio below which the optimal step is interior (approx -0.1001)."""
    s5 = math.sqrt(5.0)
    return (-9.0 - 5.0 * s5 + math.sqrt(190.0 + 90.0 * s5)) / 4.0


def _optimal_step_root(t: float, w: float) -> float:
    """Root h in [1, 2] of the optimal-step cubic, given t and w = 1 - t.

    The cubic, half the numerator of the derivative of the mid-range objective
    2h + kappa h^3 / (2 - (1 + kappa) h), times t^2, is
    t^2 - (1 + t) s + (t^2 + 2t - 2) s^2 - (2t - 1)(t - 1) s^3 in s = h - 1 and
    -4w + 4w (1 + w) u + (1 - w - 5w^2) u^2 - w (1 - 2w) u^3 in u = 2 - h. The
    root nears s = 0 as t -> 0 and u = 0 as t -> 1, so each form is used on
    the half where none of its terms cancels. w = -kappa t is passed apart
    from t, as 1 - t loses its relative accuracy as kappa -> 0.
    """

    def cubic(s):
        if s < 0.5:
            return t * t - (1.0 + t) * s + (t * t + 2.0 * t - 2.0) * s * s \
                - (2.0 * t - 1.0) * (t - 1.0) * s**3
        u = 1.0 - s
        return -4.0 * w + 4.0 * w * (1.0 + w) * u + (1.0 - w - 5.0 * w * w) * u * u \
            - w * (1.0 - 2.0 * w) * u**3

    # bisection on [0, 1], which changes sign: cubic(0) = t^2 >= 0 and cubic(1) = -4w <= 0;
    # each end keeps its sign, so none is read from a product that may underflow. Of the
    # final bracket's two ends, the root is the one with the smaller |cubic|.
    lo, hi = 0.0, 1.0
    flo, fhi = cubic(lo), cubic(hi)
    while flo != 0.0 and fhi != 0.0 and hi - lo >= 2.0**-52:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles
            break
        fmid = cubic(mid)
        if fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 1.0 + (lo if abs(flo) <= abs(fhi) else hi)


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
    (conjectured large-step regime) and returns the cubic root on [1, 2),
    which rounds to 2 for kappa above about -3e-33.
    """
    mode = OptimalStepMode(mode)
    t = validate_class(kappa, 1.0).t
    w = -kappa * t if t else 1.0  # at kappa = -inf, -kappa * t is inf * 0
    if mode == OptimalStepMode.asymptotic:
        if kappa == 0.0:
            raise ValidationError("asymptotic mode requires kappa < 0: at kappa = 0 the "
                                  "cubic's root is h = 2, outside the steps (0, 2)")
        return OptimalStep(h_star=_optimal_step_root(t, w),
                           branch=OptimalStepBranch.asymptotic_conjectured)
    if kappa > kappa_bar():
        return OptimalStep(h_star=_threshold(t), branch=OptimalStepBranch.threshold)
    return OptimalStep(h_star=_optimal_step_root(t, w), branch=OptimalStepBranch.cubic_root)


def conjectured_bound_convex(
    h: float, n: int, L: float, delta: float, kind: NumeratorKind
) -> RateResult:
    """Conjectured convex bound for constant steps h in (3/2, 2): the third
    regime at kappa = 0, where h_bar = 3/2, r = 1 and the slope is 2h."""
    return conjectured_bound_third_regime(h, n, CurvatureClass(0.0, L), delta, 1.0, kind)


def third_regime_slope(cls: CurvatureClass, h: float) -> float:
    """Slope in N of the third regime's linear branch at the class's t; StepOutOfRange
    unless h_bar < h < 2, where the regime is conjectured (up to h_bar, p(h) is proven)."""
    t = rate_class(cls).t
    h_bar = _threshold(t)
    if not (h_bar + H_BAR_SLACK < h < 2.0):
        raise StepOutOfRange(f"h={h} outside (h_bar={h_bar}, 2)")
    return _slope(t, h)


def conjectured_bound_third_regime(
    h: float,
    n: int,
    cls: CurvatureClass,
    delta: float,
    r_value: float,
    kind: NumeratorKind,
) -> RateResult:
    """Conjectured bound 2 L delta / D for N constant steps h in (h_bar(kappa), 2), with
    D = min((1 - h)^(-2N), r + N slope), minus 1 for the gap to the last iterate.

    The intercept r, the same for both kinds, is not known analytically and must be
    supplied (see ``fit_r``). The min rule is loose at small N: with r fitted to
    gap-to-optimal optima at (kappa, h) = (-1, 1.933), (-0.5, 1.9114) and (-2, 1.9557),
    the bound is at least the PEP optimum on N = 1..10 and equals it to 5e-9 from N = 4
    or 5 on, but is up to 89% above it before that (at (-0.5, 1.9114), N = 1, the PEP is
    2 / geom although lin < geom). ValidationError if r is not finite or the denominator
    is not positive (no bound then), ScaleOverflow if it overflows a double.
    """
    validate_delta(delta)
    slope = third_regime_slope(cls, h)
    try:
        geom = (1.0 - h) ** (-2 * n)
    except OverflowError:  # past the largest double: the linear branch is the min
        geom = math.inf
    denom = min(geom, r_value + n * slope) - (kind == NumeratorKind.gap_to_last)
    if not (math.isfinite(r_value) and denom > 0.0):  # min(geom, nan) would be geom
        raise ValidationError(f"no third-regime bound at r={r_value!r}: denominator {denom!r}")
    if not math.isfinite(denom):
        raise ScaleOverflow(f"the third-regime denominator at h={h}, N={n} is {denom!r}")
    return RateResult(
        bound=user_units(2.0 * (cls.L * delta / denom), 2.0 / denom, "the bound", cls.L, delta),
        denominator=denom,
        regime=RateRegime.large,
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
    kind: NumeratorKind,
) -> FitRResult:
    """Estimate the third-regime intercept r from unit-scale PEP optima of ``kind``.

    Each (N, v) pair, v the optimum at L = delta = 1 (a solve's ``linear_values["l"]``), yields
    an implied denominator D(N) = 2 / v, plus 1 for the gap to the last iterate, so that r is
    the same for both kinds, and for every L and delta, in which the worst case is homogeneous.
    A point is on the geometric branch when D(N) (1 - h)^(2N), which underflows to 0 at large
    N where its inverse would overflow, is 1 to GEOM_REL_TOL. r is the mean of D(N) - N slope
    over the other points, the linear ones that ``used_n`` lists, with the slope of
    ``third_regime_slope`` (StepOutOfRange unless h_bar < h < 2); BranchMismatch if they grow
    at another slope.
    """
    slope = third_regime_slope(cls, h)
    offset = kind == NumeratorKind.gap_to_last
    points = [(int(n), 2.0 / v + offset) for n, v in pep_values]
    used = [(n, d) for n, d in points if abs(d * (1.0 - h) ** (2 * n) - 1.0) > GEOM_REL_TOL]
    if len(used) < 2:
        raise InsufficientData("fewer than 2 PEP optima on the linear-in-N branch")
    r = sum(d - n * slope for n, d in used) / len(used)

    ns = [n for n, _ in used]
    ds = [d for _, d in used]
    n_mean = sum(ns) / len(ns)
    d_mean = sum(ds) / len(ds)
    var = sum((n - n_mean) ** 2 for n in ns)
    slope_obs = (
        sum((n - n_mean) * (d - d_mean) for n, d in used) / var if var > 0 else float("nan")
    )
    if var > 0 and abs(slope_obs - slope) > SLOPE_REL_TOL * abs(slope):
        raise BranchMismatch(
            f"observed slope {slope_obs} deviates from analytic slope {slope} by more than "
            f"{SLOPE_REL_TOL:.0%}"
        )
    residuals = tuple(d - (r + n * slope) for n, d in used)
    return FitRResult(r=r, slope_analytic=slope, slope_observed=slope_obs,
                      residuals=residuals, used_n=tuple(ns))
