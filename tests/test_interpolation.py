from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypopep.core import CurvatureClass, OracleTriplet, TripletSet, validate_class
from hypopep.interpolation import (
    DegenerateClass,
    check_interpolable,
    quadratic_bounds_check,
    slack_matrix,
)


def sample_quadratic_triplets(curv, xs):
    # f(x) = curv/2 * |x|^2 has gradient curv*x and sits in any class with
    # mu <= curv <= L
    trips = [
        OracleTriplet(x, curv * x, 0.5 * curv * float(x @ x)) for x in xs
    ]
    return TripletSet(tuple(trips))


def test_quadratic_is_interpolable():
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal(3) for _ in range(5)]
    ts = sample_quadratic_triplets(0.5, xs)
    cls = validate_class(-1.0, 1.0)
    report = check_interpolable(ts, cls)
    assert report.feasible
    assert report.worst_violation >= -1e-12


def test_too_steep_quadratic_is_not_interpolable():
    xs = [np.array([0.0]), np.array([1.0])]
    ts = sample_quadratic_triplets(3.0, xs)
    cls = validate_class(-1.0, 1.0)
    report = check_interpolable(ts, cls)
    assert not report.feasible
    assert report.violating_pair is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x1, g1", [
    (1e200, 0.0),  # (1 - t) L |dx|^2 / 2 overflows: the slack is +inf
    (1e200, 1e200),  # inf - inf: the slack is NaN
])
def test_overflowing_slack_is_a_violation(x1, g1):
    # a slack that is not a finite double says nothing about interpolability
    ts = TripletSet((OracleTriplet([0.0], [0.0], 0.0), OracleTriplet([x1], [g1], 0.0)))
    cls = validate_class(-1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        S = slack_matrix(np.array([[0.0], [x1]]), np.array([[0.0], [g1]]), np.zeros(2), cls)
    assert not np.isfinite(S[0, 1]) and not np.isfinite(S[1, 0])
    report = check_interpolable(ts, cls)
    assert not report.feasible
    assert report.worst_violation == -np.inf
    assert report.violating_pair == (0, 1)


def test_degenerate_class_rejected():
    ts = sample_quadratic_triplets(0.0, [np.array([0.0])])
    with pytest.raises(DegenerateClass):
        check_interpolable(ts, CurvatureClass(mu=1.0, L=1.0))


def shift_triplets(ts, mu):
    # curvature subtraction (x, g, f) -> (x, g - mu*x, f - mu/2*|x|^2): the
    # set is (mu, L)-interpolable iff its image is (0, L - mu)-interpolable
    return TripletSet(
        tuple(
            OracleTriplet(t.x, t.g - mu * t.x, t.f - 0.5 * mu * float(t.x @ t.x))
            for t in ts.triplets
        )
    )


@given(st.floats(min_value=-5.0, max_value=-0.01))
@settings(max_examples=25, deadline=None)
def test_shift_equivalence(mu):
    rng = np.random.default_rng(7)
    xs = [rng.standard_normal(2) for _ in range(4)]
    ts = sample_quadratic_triplets(0.3, xs)
    cls = validate_class(mu, 1.0)
    shifted = shift_triplets(ts, mu)
    r0 = check_interpolable(ts, cls)
    r1 = check_interpolable(shifted, CurvatureClass(mu=0.0, L=1.0 - mu))
    assert r0.feasible == r1.feasible
    assert abs(r0.worst_violation - r1.worst_violation) < 1e-9


def test_quadratic_bounds_check_negative_control():
    cls = validate_class(-0.1, 1.0)

    def f(x):
        return float(x @ x)  # curvature 2 > L

    def g(x):
        return 2.0 * x

    pairs = [(np.array([0.0]), np.array([1.0]))]
    assert not quadratic_bounds_check(f, g, cls, pairs)


# Reference: the per-pair loop that check_interpolable replaced, kept here
# with its own copy of the inequality in t = 1 / (1 - kappa).
def reference_slack(ti, tj, cls):
    L = cls.L
    t = 1.0 / (1.0 - cls.mu / L)
    dx = ti.x - tj.x
    dg = ti.g - tj.g
    lhs = ti.f - tj.f - float(tj.g @ dx)
    rhs = 0.5 * (t * float(dg @ dg) / L - (1.0 - t) * L * float(dx @ dx))
    return lhs - rhs - (1.0 - t) * float(dg @ dx)


@given(
    kappa=st.floats(-1e3, 0.0),
    L=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_t_form_is_the_kappa_form(kappa, L, seed):
    # the implemented t-form against the paper's form of the inequality,
    # df - <g_b, dx> - (|dg|^2 / L + mu |dx|^2 - 2 kappa <dg, dx>) / (2 (1 - kappa)),
    # on 56 ordered pairs in d = 1. The yardstick is the sum of the t-form's
    # term sizes with 1 - t counted as 1: t is rounded relative to itself, so
    # 1 - t carries an absolute error of up to eps / 2, which near kappa = 0
    # is large against the kappa-form's small mu term.
    cls = validate_class(kappa * L, L)
    mu, kappa, t = cls.mu, cls.kappa, cls.t
    rng = np.random.default_rng(seed)
    x, g, f = rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal(8)
    df, dx, dg = f[:, None] - f, x[:, None] - x, g[:, None] - g
    c = 2.0 * (1.0 - kappa)
    kappa_form = df - g * dx - (dg * dg / L + mu * dx * dx - 2.0 * kappa * dg * dx) / c
    sizes = abs(df) + abs(g * dx) + t * dg * dg / (2.0 * L) + L * dx * dx / 2.0 + abs(dg * dx)
    S = slack_matrix(x[:, None], g[:, None], f, cls)
    assert (abs(S - kappa_form) <= 1e-15 * sizes).all()


def reference_check(ts, cls, tol=1e-9):
    worst = 0.0
    worst_pair = None
    trip = ts.triplets
    for i, j in combinations(range(len(trip)), 2):
        for a, b in ((i, j), (j, i)):
            s = reference_slack(trip[a], trip[b], cls)
            if s < worst:
                worst = s
                worst_pair = (a, b)
    return worst >= -tol, worst, worst_pair


def assert_matches_reference(ts, cls, exact):
    rep = check_interpolable(ts, cls)
    feasible, worst, pair = reference_check(ts, cls)
    assert (rep.feasible, rep.violating_pair) == (feasible, pair)
    if exact:
        assert rep.worst_violation == worst
    else:
        assert abs(rep.worst_violation - worst) <= 1e-12 * max(1.0, abs(worst))
    return rep


@pytest.mark.parametrize("d", [1, 2, 5, 22])
@given(
    n=st.integers(1, 60),
    kappa=st.floats(-3.0, 0.0, exclude_max=True),
    L=st.floats(0.5, 4.0),
    u=st.floats(0.1, 0.9),
    log_noise=st.integers(-5, 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_check_matches_pair_loop(d, n, kappa, L, u, log_noise, seed):
    # samples of a quadratic with curvature inside (mu, L), values perturbed
    # on the scale of |x_a - x_b|^2 ~ 2d
    cls = validate_class(kappa * L, L)
    curv = cls.mu + u * (cls.L - cls.mu)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    noise = 10.0**log_noise * d * rng.standard_normal(n)
    trips = tuple(
        OracleTriplet(x, curv * x, 0.5 * curv * float(x @ x) + e) for x, e in zip(xs, noise)
    )
    assert_matches_reference(TripletSet(trips), cls, exact=d == 1)


def test_single_triplet_has_no_pair():
    ts = sample_quadratic_triplets(0.5, [np.array([1.0, 2.0])])
    rep = assert_matches_reference(ts, validate_class(-1.0, 1.0), exact=True)
    assert rep.feasible and rep.worst_violation == 0.0 and rep.violating_pair is None


def test_tied_violations_break_in_loop_order():
    # with g = 0, kappa = -1: slack(a, b) = f_a - f_b + (x_a - x_b)^2 / 4, so
    # slack(1, 0) = slack(0, 2) = -0.75 exactly; the loop meets (1, 0) first,
    # a row-major scan of the slack matrix would meet (0, 2) first
    trips = tuple(
        OracleTriplet(np.array([x]), np.array([0.0]), f)
        for x, f in ((0.0, 0.0), (1.0, -1.0), (-3.0, 3.0))
    )
    ts = TripletSet(trips)
    cls = validate_class(-1.0, 1.0)
    assert reference_slack(trips[1], trips[0], cls) == reference_slack(trips[0], trips[2], cls) == -0.75
    rep = assert_matches_reference(ts, cls, exact=True)
    assert rep.violating_pair == (1, 0)
    assert rep.worst_violation == -0.75


def test_tie_within_a_pair_reports_i_before_j():
    # mirror-image triplets: slack(0, 1) and slack(1, 0) are the same sums
    trips = (
        OracleTriplet(np.array([-1.0]), np.array([-2.0]), 0.0),
        OracleTriplet(np.array([1.0]), np.array([2.0]), 0.0),
    )
    cls = validate_class(-1.0, 1.0)
    assert reference_slack(trips[0], trips[1], cls) == reference_slack(trips[1], trips[0], cls) < 0.0
    rep = assert_matches_reference(TripletSet(trips), cls, exact=True)
    assert rep.violating_pair == (0, 1)


def test_points_far_from_origin():
    # slacks depend on differences only; offsets on a 1/8 grid stay exact
    # at 1e9, where a Gram-matrix expansion would cancel catastrophically
    cls = validate_class(-0.5, 2.0)
    rng = np.random.default_rng(11)
    offsets = rng.integers(-32, 33, size=(12, 3)) / 8.0
    f = 0.5 * (offsets**2).sum(axis=1)
    f[4] -= 5.0  # one value too low: some pairs violate

    def triplets(shift):
        return TripletSet(
            tuple(OracleTriplet(shift + x, x, v) for x, v in zip(offsets, f))
        )

    near = check_interpolable(triplets(0.0), cls)
    far = assert_matches_reference(triplets(1e9), cls, exact=False)
    assert not far.feasible
    assert far.worst_violation == near.worst_violation
    assert far.violating_pair == near.violating_pair
