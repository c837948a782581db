import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypopep.core import NumeratorKind, StepSchedule, validate_class
from hypopep.rates import (
    KAPPA_LARGE,
    KAPPA_MIN,
    BranchMismatch,
    InsufficientData,
    KappaBelowFloor,
    OptimalStepBranch,
    OptimalStepMode,
    PositiveKappa,
    StepAboveThreshold,
    StepNonPositive,
    StepOutOfRange,
    conjectured_bound_convex,
    conjectured_bound_third_regime,
    fit_r,
    kappa_bar,
    nstep_bound,
    one_step_p,
    one_step_p_unbounded,
    optimal_step,
    solve_bracketed_root,
    step_threshold,
    third_regime_slope,
)

kappas = st.floats(min_value=-50.0, max_value=0.0, allow_nan=False)


def test_threshold_reference_values():
    assert abs(step_threshold(-1.0) - math.sqrt(3.0)) < 1e-12
    assert abs(step_threshold(0.0) - 1.5) < 1e-12
    assert step_threshold(0.0, unbounded_below=True) == 2.0


def test_threshold_rejects_positive_kappa():
    with pytest.raises(PositiveKappa):
        step_threshold(0.1)


def test_kappa_floor():
    # down to the floor the closed forms work; below it they are refused
    for kappa in (-1e6, -7.7e7, -5e7, KAPPA_MIN):
        assert 0.0 < 2.0 - step_threshold(kappa) < 2e-6
        for mode in OptimalStepMode:
            assert 1.0 <= optimal_step(kappa, mode).h_star < 1.0 + 2e-12
    # h_bar = 2 - 1/(2|kappa|) + O(kappa^-2), without the cancellation of 3 / (1 + kappa + ...)
    assert abs(step_threshold(KAPPA_MIN) - 1.999999995) <= 4.5e-16
    below = math.nextafter(KAPPA_MIN, -math.inf)
    for call in (lambda: step_threshold(below), lambda: one_step_p(0.5, below),
                 lambda: optimal_step(below), lambda: optimal_step(-5e9),
                 lambda: step_threshold(-1.2e16), lambda: optimal_step(-1.7e308)):
        with pytest.raises(KappaBelowFloor):
            call()


def test_closed_forms_continuous_at_kappa_large():
    # either side of KAPPA_LARGE the two forms of h_bar and of the optimal step agree
    below = math.nextafter(KAPPA_LARGE, -math.inf)
    assert abs(step_threshold(KAPPA_LARGE) - step_threshold(below)) < 1e-10
    assert abs(optimal_step(KAPPA_LARGE).h_star - optimal_step(below).h_star) <= 4.5e-16


@given(kappas)
def test_threshold_range(kappa):
    h_bar = step_threshold(kappa)
    assert 1.5 <= h_bar < 2.0


@given(kappas)
def test_threshold_is_root_of_quadratic(kappa):
    h = step_threshold(kappa)
    assert abs(kappa * h * h - 2.0 * h * (1.0 + kappa) + 3.0) < 1e-10


@given(st.floats(min_value=-50.0, max_value=-1e-6))
def test_branches_agree_at_one(kappa):
    short = 2.0 * 1.0 - 1.0 * (-kappa) / (1.0 - kappa)
    mid = 1.0 * (2.0 - 1.0) * (2.0 - kappa) / (2.0 - (1.0 + kappa))
    assert abs(short - mid) < 1e-12
    assert abs(one_step_p(1.0, kappa) - short) < 1e-12


def test_one_step_p_input_checks():
    with pytest.raises(StepNonPositive):
        one_step_p(0.0, -1.0)
    with pytest.raises(StepAboveThreshold):
        one_step_p(1.9, -1.0)
    with pytest.raises(PositiveKappa):
        one_step_p(0.5, 0.5)


@given(st.floats(min_value=1e-3, max_value=1.73))
def test_kappa_minus_one_specialization(h):
    # p(h, -1) collapses to the classical smooth-nonconvex constant
    expected = 2.0 * h - (h * h / 2.0) * max(1.0, h)
    assert abs(one_step_p(h, -1.0) - expected) < 1e-12


@given(st.floats(min_value=1e-3, max_value=1.5))
def test_nesterov_limit(h):
    assert abs(one_step_p(h, -1e8) - one_step_p_unbounded(h)) < 1e-6


def test_unbounded_p_range_check():
    with pytest.raises(StepAboveThreshold):
        one_step_p_unbounded(2.0)
    assert abs(one_step_p_unbounded(1.9) - (2 * 1.9 - 1.9**2)) < 1e-15


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
    with pytest.raises(StepAboveThreshold) as err:
        nstep_bound(cls, StepSchedule((0.5, 1.8)), 1.0, NumeratorKind.gap_to_last)
    assert err.value.index == 1


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
    with pytest.raises(PositiveKappa):
        optimal_step(0.0, OptimalStepMode.asymptotic)


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
    with pytest.raises(Exception):
        solve_bracketed_root(lambda x: x * x + 1.0, 0.0, 2.0)


def test_conjectured_convex_bound_switches_branch():
    # small N: geometric branch; large N: linear branch
    small = conjectured_bound_convex(1.8, 1, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    assert abs(small.denominator - (1.0 - 1.8) ** -2) < 1e-12
    big = conjectured_bound_convex(1.8, 10, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    assert abs(big.denominator - (1.0 + 2 * 10 * 1.8)) < 1e-12
    with pytest.raises(StepOutOfRange):
        conjectured_bound_convex(1.4, 1, 1.0, 1.0, NumeratorKind.gap_to_optimal)


def test_third_regime_bound_requires_large_h():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(StepOutOfRange):
        conjectured_bound_third_regime(1.5, 3, cls, 1.0, 1.0, NumeratorKind.gap_to_optimal)
    res = conjectured_bound_third_regime(1.8, 3, cls, 1.0, 0.9, NumeratorKind.gap_to_optimal)
    lin = 0.9 + 3 * third_regime_slope(-1.0, 1.8)
    assert abs(res.denominator - min((1.0 - 1.8) ** -6, lin)) < 1e-12


def test_fit_r_recovers_planted_intercept():
    cls = validate_class(-1.0, 1.0)
    h = 1.8
    slope = third_regime_slope(-1.0, h)
    r_true = 0.9
    data = [(n, 2.0 / (r_true + n * slope)) for n in range(3, 8)]
    res = fit_r(cls, h, data)
    assert abs(res.r - r_true) < 1e-10
    assert max(abs(v) for v in res.residuals) < 1e-9


def test_fit_r_rejects_wrong_slope():
    cls = validate_class(-1.0, 1.0)
    data = [(n, 2.0 / (0.9 + n * 0.1)) for n in range(3, 8)]
    with pytest.raises(BranchMismatch):
        fit_r(cls, 1.8, data)


def test_fit_r_needs_two_points():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(InsufficientData):
        fit_r(cls, 1.8, [(3, 0.5)])
