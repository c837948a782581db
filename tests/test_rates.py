import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypopep.core import (
    BadStepSchedule,
    CurvatureClass,
    NumeratorKind,
    NumericalFailure,
    PositiveKappa,
    RateRegime,
    ScaleOverflow,
    StepSchedule,
    ValidationError,
    validate_class,
)
from hypopep.rates import (
    BranchMismatch,
    InsufficientData,
    OptimalStepBranch,
    OptimalStepMode,
    RootNotBracketed,
    StepAboveThreshold,
    StepOutOfRange,
    _slope,
    conjectured_bound_convex,
    conjectured_bound_third_regime,
    fit_r,
    kappa_bar,
    nstep_bound,
    one_step_p,
    optimal_step,
    solve_bracketed_root,
    step_threshold,
)

kappas = st.floats(min_value=-50.0, max_value=0.0, allow_nan=False)

# seeded log-uniform kappa over [-1.7e308, -1e-12], plus the old switch point
# -1e6 of h_bar's two kappa-forms and values with t or t^2 subnormal
_rng = random.Random(17)
WIDE_KAPPAS = [-(10.0 ** _rng.uniform(-12.0, math.log10(1.7e308))) for _ in range(1500)] + [
    0.0, -1.0, -1e6, math.nextafter(-1e6, -math.inf), -4e154, -1.7e308,
]


def _quadratic(kappa, h):
    """kappa h^2 - 2 (1 + kappa) h + 3, whose root in [3/2, 2) is h_bar, exactly."""
    k, h = Fraction(kappa), Fraction(h)
    return k * h * h - 2 * (1 + k) * h + 3


def _cubic(kappa, h):
    """The optimal-step cubic in kappa, exactly."""
    k, h = Fraction(kappa), Fraction(h)
    return -k * (1 + k) * h**3 + (3 * k + (1 + k) ** 2) * h**2 - 4 * (1 + k) * h + 4


def _changes_sign(f, lo, hi):
    a, b = f(lo), f(hi)
    return a == 0 or b == 0 or (a < 0) != (b < 0)


def _within_ulps(f, kappa, h, n):
    """f(kappa, .) has an exact root within n ulps of h."""
    lo = hi = h
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return _changes_sign(lambda x: f(kappa, x), lo, hi)


def test_threshold_reference_values():
    assert abs(step_threshold(-1.0) - math.sqrt(3.0)) < 1e-12
    assert abs(step_threshold(0.0) - 1.5) < 1e-12


def test_threshold_rejects_positive_kappa():
    with pytest.raises(PositiveKappa):
        step_threshold(0.1)


def test_closed_forms_accept_every_finite_kappa():
    # no floor: t = 1 / (1 - kappa) keeps every form finite down to -1.7e308
    for kappa in (-1e6, -1e8, math.nextafter(-1e8, -math.inf), -5e9, -1.2e16, -1.7e308):
        assert 0.0 <= 2.0 - step_threshold(kappa) < 2e-6
        assert 0.75 <= one_step_p(0.5, kappa) < 0.75 + 3e-7  # 2h - h^2 + t h^2
        for mode in OptimalStepMode:
            assert 1.0 <= optimal_step(kappa, mode).h_star < 1.0 + 2e-12
    # h_bar = 2 - 1/(2|kappa|) + O(kappa^-2)
    assert abs(step_threshold(-1e8) - 1.999999995) <= 4.5e-16
    assert step_threshold(-1.7e308) == 2.0


def test_threshold_does_not_decrease_across_minus_1e6():
    # h_bar grows as kappa falls, also across -1e6, where the kappa-forms
    # used to switch and h_bar(-1e6) exceeded h_bar(nextafter(-1e6, -inf))
    ks = [-1e6 * (1.0 + i * 1e-6) for i in range(-1000, 1001)]
    ks += [-1e6, math.nextafter(-1e6, -math.inf)]
    ks.sort(reverse=True)
    values = [step_threshold(k) for k in ks]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_threshold_within_4_ulps_over_all_kappa():
    for kappa in WIDE_KAPPAS:
        assert _within_ulps(_quadratic, kappa, step_threshold(kappa), 4), kappa


def test_optimal_step_is_an_exact_root_over_all_kappa():
    # the cubic changes sign exactly within 1e-14 h* of every cubic-root h*;
    # t^2 is subnormal at kappa = -4e154, where h* is 1 to double precision
    for kappa in WIDE_KAPPAS:
        for mode in OptimalStepMode:
            if kappa == 0.0 and mode == OptimalStepMode.asymptotic:
                continue
            res = optimal_step(kappa, mode)
            if res.branch == OptimalStepBranch.threshold:
                assert res.h_star == step_threshold(kappa)
                continue
            h = Fraction(res.h_star)
            assert _changes_sign(lambda x: _cubic(kappa, x), h * (1 - Fraction(1e-14)),
                                 h * (1 + Fraction(1e-14))), (kappa, mode)
    assert optimal_step(-4e154).h_star == 1.0


@given(kappas)
def test_threshold_range(kappa):
    h_bar = step_threshold(kappa)
    assert 1.5 <= h_bar < 2.0


@given(kappas)
def test_threshold_is_root_of_quadratic(kappa):
    assert _within_ulps(_quadratic, kappa, step_threshold(kappa), 4)


@given(st.floats(min_value=-50.0, max_value=-1e-6))
def test_branches_agree_at_one(kappa):
    short = 2.0 * 1.0 - 1.0 * (-kappa) / (1.0 - kappa)
    mid = 1.0 * (2.0 - 1.0) * (2.0 - kappa) / (2.0 - (1.0 + kappa))
    assert abs(short - mid) < 1e-12
    assert abs(one_step_p(1.0, kappa) - short) < 1e-12


def test_one_step_p_input_checks():
    for h in (-0.5, 0.0, 2.0, 2.5, math.nan):  # the schedule's own check of a step in (0, 2)
        with pytest.raises(BadStepSchedule):
            one_step_p(h, -1.0)
    with pytest.raises(StepAboveThreshold):
        one_step_p(1.9, -1.0)
    with pytest.raises(PositiveKappa):
        one_step_p(0.5, 0.5)


@given(st.floats(min_value=1e-3, max_value=1.73))
def test_kappa_minus_one_specialization(h):
    # p(h, -1) collapses to the classical smooth-nonconvex constant
    expected = 2.0 * h - (h * h / 2.0) * max(1.0, h)
    assert abs(one_step_p(h, -1.0) - expected) < 1e-12


def test_nesterov_limit():
    # kappa = -inf is t = 0: each per-step p is 2h - h^2 to 1 ulp,
    # and p(h, kappa) reaches it at the most negative double kappa
    cls = validate_class(-math.inf, 1.0)
    rng = random.Random(5)
    steps = tuple(rng.uniform(0.0, 2.0) for _ in range(400)) + (1e-300, 1.0, 1.5, 1.9999999999999998)
    res = nstep_bound(cls, StepSchedule(steps), 1.0, NumeratorKind.gap_to_last)
    for h, p in zip(steps, res.per_step_p):
        exact = 2 * Fraction(h) - Fraction(h) ** 2
        assert abs(Fraction(p) - exact) <= Fraction(math.ulp(p)), h
        assert abs(one_step_p(h, -1.7e308) - p) <= math.ulp(p), h


def test_unbounded_p_range_check():
    # h_bar is 2 at t = 0, so every step of a schedule in (0, 2) is admissible
    cls = validate_class(-math.inf, 1.0)
    res = nstep_bound(cls, StepSchedule((1.9,)), 1.0, NumeratorKind.gap_to_last)
    assert abs(res.per_step_p[0] - (2 * 1.9 - 1.9**2)) < 1e-15
    with pytest.raises(BadStepSchedule):
        one_step_p(-0.5, -1.7e308)


@given(
    st.floats(min_value=0.05, max_value=1.49),
    st.floats(min_value=-20.0, max_value=-0.01),
    st.floats(min_value=-20.0, max_value=-0.01),
)
def test_p_monotone_in_kappa(h, k1, k2):
    # shrinking kappa (more hypoconvex) can only slow the rate
    lo, hi = min(k1, k2), max(k1, k2)
    assert one_step_p(h, lo) <= one_step_p(h, hi) + 1e-12


def test_nstep_bound_matches_manual_sum():
    cls = validate_class(-1.0, 2.0)
    sched = StepSchedule((0.5, 1.0, 0.75))
    res = nstep_bound(cls, sched, 3.0, NumeratorKind.gap_to_last)
    denom = sum(one_step_p(h, -0.5) for h in sched.steps)
    assert abs(res.denominator - denom) < 1e-14
    assert abs(res.bound - 2.0 * 2.0 * 3.0 / denom) < 1e-12
    opt = nstep_bound(cls, sched, 3.0, NumeratorKind.gap_to_optimal)
    assert abs(opt.denominator - (1.0 + denom)) < 1e-14


def test_nstep_bound_reports_bad_step_index():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(StepAboveThreshold, match="^step index 1: h=1.8 exceeds h_bar="):
        nstep_bound(cls, StepSchedule((0.5, 1.8)), 1.0, NumeratorKind.gap_to_last)


def test_convex_bound_values():
    # kappa = 0 gives p(h) = 2h on both branches
    cls = validate_class(0.0, 1.0)
    res = nstep_bound(cls, StepSchedule.constant(1.0, 2), 1.0, NumeratorKind.gap_to_optimal)
    assert abs(res.bound - 0.4) < 1e-14


def test_kappa_bar_value():
    assert abs(kappa_bar() - (-0.1001)) < 5e-5


def test_kappa_bar_is_branch_crossing():
    # at kappa_bar the interior cubic root coincides with the threshold
    kb = kappa_bar()
    h_bar = step_threshold(kb)
    interior = optimal_step(kb, OptimalStepMode.theorem)
    assert abs(interior.h_star - h_bar) < 1e-8


def test_optimal_step_reference_values():
    res = optimal_step(-1.0)
    assert res.branch == OptimalStepBranch.cubic_root
    assert abs(res.h_star - 2.0 / math.sqrt(3.0)) < 1e-10
    above = optimal_step(-0.05)
    assert above.branch == OptimalStepBranch.threshold
    assert abs(above.h_star - step_threshold(-0.05)) < 1e-14


def test_optimal_step_asymptotic_mode():
    res = optimal_step(-0.5, OptimalStepMode.asymptotic)
    assert res.branch == OptimalStepBranch.asymptotic_conjectured
    assert 1.0 < res.h_star < 2.0
    # kappa = 0 is not positive: the rule is kappa < 0, as the root is 2 there
    with pytest.raises(ValidationError, match="asymptotic mode requires kappa < 0") as info:
        optimal_step(0.0, OptimalStepMode.asymptotic)
    assert not isinstance(info.value, PositiveKappa)


@given(st.floats(min_value=-20.0, max_value=-0.15))
@settings(max_examples=50)
def test_optimal_step_maximizes_p(kappa):
    h_star = optimal_step(kappa).h_star
    h_bar = step_threshold(kappa)
    p_star = one_step_p(h_star, kappa)
    eps = 1e-5
    for h in (h_star - eps, min(h_star + eps, h_bar)):
        assert one_step_p(h, kappa) <= p_star + 1e-9


def test_solve_bracketed_root():
    root = solve_bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-12
    # a tol below the double spacing stops at adjacent doubles
    root = solve_bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-30)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(root)
    with pytest.raises(RootNotBracketed) as info:
        solve_bracketed_root(lambda x: x * x + 1.0, 0.0, 2.0)
    assert isinstance(info.value, NumericalFailure)  # exit 3 in the CLI


def test_conjectured_convex_bound_switches_branch():
    # small N: geometric branch; large N: linear branch
    small = conjectured_bound_convex(1.8, 1, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    assert abs(small.denominator - (1.0 - 1.8) ** -2) < 1e-12
    big = conjectured_bound_convex(1.8, 10, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    assert abs(big.denominator - (1.0 + 2 * 10 * 1.8)) < 1e-12
    with pytest.raises(StepOutOfRange):
        conjectured_bound_convex(1.4, 1, 1.0, 1.0, NumeratorKind.gap_to_optimal)


@pytest.mark.parametrize("kind", list(NumeratorKind))
def test_conjectured_bound_past_the_largest_double(kind):
    # (1 - h)^(-2N) overflows a double at N = 2000: the linear branch 1 + 2hN is the min
    res = conjectured_bound_convex(1.6, 2000, 1.0, 1.0, kind)
    lin = 1.0 + 2000 * _slope(1.0, 1.6) - (kind == NumeratorKind.gap_to_last)
    assert res.denominator == lin and res.bound == 2.0 / lin


def test_third_regime_bound_and_fit_r_check_kappa_and_delta():
    opt = NumeratorKind.gap_to_optimal
    cls = validate_class(-1.0, 1.0)
    data = [(n, 2.0 / (0.9 + n * _slope(0.5, 1.8))) for n in range(3, 8)]
    with pytest.raises(PositiveKappa):  # the bound was -0.42
        conjectured_bound_third_regime(1.6, 3, CurvatureClass(0.5, 1.0), 1.0, 1.0, opt)
    with pytest.raises(PositiveKappa):
        fit_r(CurvatureClass(0.5, 1.0), 1.8, data, opt)
    for delta in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="delta must be positive"):
            conjectured_bound_third_regime(1.8, 3, cls, delta, 1.0, opt)


@pytest.mark.parametrize("kind", list(NumeratorKind))
def test_conjectured_bound_with_an_overflowing_denominator(kind):
    # at N = 1e308 the linear branch 1 + 2hN overflows too: no finite denominator, no bound
    with pytest.raises(ScaleOverflow, match="denominator"):
        conjectured_bound_convex(1.6, 10**308, 1.0, 1.0, kind)


@pytest.mark.parametrize("r, n, kind", [
    (0.727185, 1, NumeratorKind.gap_to_last),  # denominator -0.018: the bound was -110.3
    *[(r, 3, kind) for r in (-5.0, math.nan, math.inf, -math.inf) for kind in NumeratorKind],
])
def test_conjectured_bound_refuses_a_meaningless_r(r, n, kind):
    # a non-finite r, or a denominator that is not positive, gives no bound:
    # r = -5 gave a negative one, and nan or inf the geometric one (min(geom, nan) is geom)
    with pytest.raises(ValidationError, match="no third-regime bound") as err:
        conjectured_bound_third_regime(1.933, n, validate_class(-1.0, 1.0), 1.0, r, kind)
    assert type(err.value) is ValidationError, err.value


@pytest.mark.parametrize("kappa", [0.0, -1.0])
@pytest.mark.parametrize("kind", list(NumeratorKind))
def test_steps_just_above_h_bar_fall_in_one_regime(kappa, kind):
    # h_bar + k ulp has a proven rate or a conjectured bound, never both and never neither
    cls = validate_class(kappa, 1.0)
    h = step_threshold(kappa)
    regimes = []
    for _ in range(8):
        h = math.nextafter(h, 2.0)
        found = []
        try:
            found.append(nstep_bound(cls, StepSchedule.constant(h, 3), 1.0, kind).regime)
        except StepAboveThreshold:
            pass
        try:
            found.append(conjectured_bound_third_regime(h, 3, cls, 1.0, 1.0, kind).regime)
        except StepOutOfRange:
            pass
        assert len(found) == 1, (h, found)
        regimes += found
    assert regimes == sorted(regimes, key=[RateRegime.mid, RateRegime.large].index), regimes


def test_nstep_bound_labels_the_regime():
    cls = validate_class(-1.0, 1.0)
    for steps, regime in [((0.5, 1.0), RateRegime.short), ((1.0,), RateRegime.short),
                          ((1.0, 1.5), RateRegime.mid), ((0.5, 1.5), RateRegime.mixed),
                          ((1.5, 0.5, 1.0), RateRegime.mixed)]:
        res = nstep_bound(cls, StepSchedule(steps), 1.0, NumeratorKind.gap_to_last)
        assert res.regime == regime, steps


def test_third_regime_bound_requires_large_h():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(StepOutOfRange):
        conjectured_bound_third_regime(1.5, 3, cls, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    with pytest.raises(StepOutOfRange):  # on (1, h_bar] the optima lie on the proven rate
        fit_r(cls, 1.5, [(n, 2.0 / (1.0 + n * _slope(0.5, 1.5))) for n in range(3, 6)],
              NumeratorKind.gap_to_optimal)
    res = conjectured_bound_third_regime(1.8, 3, cls, 1.0, 0.9, NumeratorKind.gap_to_optimal)
    lin = 0.9 + 3 * _slope(0.5, 1.8)
    assert abs(res.denominator - min((1.0 - 1.8) ** -6, lin)) < 1e-12


def test_fit_r_recovers_planted_intercept():
    # D(N) = min(geom, lin): geom at N = 1, which is dropped, and lin from N = 2 on; at
    # N = 2000 the point is linear, as (1 - h)^(2N) underflows to 0 without an error
    cls = validate_class(-1.0, 1.0)
    h = 1.8
    slope = _slope(0.5, h)
    r_true = 0.9
    ns = [1, 2, 3, 4, 5, 6, 7, 2000]
    denoms = [(1.0 - h) ** -2] + [r_true + n * slope for n in ns[1:]]
    for kind in NumeratorKind:
        data = [(n, 2.0 / (d - (kind == NumeratorKind.gap_to_last))) for n, d in zip(ns, denoms)]
        res = fit_r(cls, h, data, kind)
        assert res.used_n == tuple(ns[1:])
        assert abs(res.r - r_true) < 1e-10
        assert max(abs(v) for v in res.residuals) < 1e-9


def test_fit_r_rejects_wrong_slope():
    cls = validate_class(-1.0, 1.0)
    data = [(n, 2.0 / (0.9 + n * 0.1)) for n in range(3, 8)]
    with pytest.raises(BranchMismatch):
        fit_r(cls, 1.8, data, NumeratorKind.gap_to_optimal)


def test_fit_r_needs_two_points():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(InsufficientData):
        fit_r(cls, 1.8, [(3, 0.5)], NumeratorKind.gap_to_optimal)
