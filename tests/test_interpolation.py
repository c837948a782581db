import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypopep.core import CurvatureClass, MuAboveL, TripletSet, validate_class
from hypopep.interpolation import (
    _dot,
    check_interpolable,
    interpolation_slack,
    quadratic_bounds_check,
)


def sample_quadratic_triplets(curv, xs):
    # f(x) = curv/2 * |x|^2 has gradient curv*x and sits in any class with
    # mu <= curv <= L
    X = np.array(xs)
    return TripletSet(X, curv * X, [0.5 * curv * float(x @ x) for x in xs])


def test_quadratic_is_interpolable():
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal(3) for _ in range(5)]
    ts = sample_quadratic_triplets(0.5, xs)
    cls = validate_class(-1.0, 1.0)
    assert check_interpolable(ts, cls) <= 1e-12


def test_too_steep_quadratic_is_not_interpolable():
    xs = [np.array([0.0]), np.array([1.0])]
    ts = sample_quadratic_triplets(3.0, xs)
    cls = validate_class(-1.0, 1.0)
    assert check_interpolable(ts, cls) > 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x1, g1", [
    (1e200, 0.0),  # (1 - t) L |dx|^2 / 2 overflows: the slack is +inf
    (1e200, 1e200),  # inf - inf: the slack is NaN
])
def test_overflowing_slack_is_a_violation(x1, g1):
    # a slack that is not a finite double says nothing about interpolability
    ts = TripletSet([[0.0], [x1]], [[0.0], [g1]], [0.0, 0.0])
    cls = validate_class(-1.0, 1.0)
    for a, b in ((0, 1), (1, 0)):
        with np.errstate(over="ignore", invalid="ignore"):
            s = interpolation_slack(ts.f[a] - ts.f[b], ts.X[a] - ts.X[b], ts.G[a] - ts.G[b],
                                    ts.G[b], cls.t, cls.L, _dot)
        assert not np.isfinite(s)
    assert check_interpolable(ts, cls) == np.inf


def test_degenerate_class_rejected():
    ts = sample_quadratic_triplets(0.0, [np.array([0.0])])
    with pytest.raises(MuAboveL):
        check_interpolable(ts, CurvatureClass(mu=1.0, L=1.0))


def shift_triplets(ts, mu):
    # curvature subtraction (x, g, f) -> (x, g - mu*x, f - mu/2*|x|^2): the
    # set is (mu, L)-interpolable iff its image is (0, L - mu)-interpolable
    return TripletSet(ts.X, ts.G - mu * ts.X, [t.f - 0.5 * mu * float(t.x @ t.x) for t in ts])


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
    assert (r0 <= 1e-9) == (r1 <= 1e-9)
    assert abs(r0 - r1) < 1e-9


def test_quadratic_bounds_check_negative_control():
    cls = validate_class(-0.1, 1.0)

    def oracle(x):
        return float(x @ x), 2.0 * x  # curvature 2 > L

    pairs = [(np.array([0.0]), np.array([1.0]))]
    assert not quadratic_bounds_check(oracle, cls, pairs)


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
    S = interpolation_slack(df, dx[..., None], dg[..., None], g[:, None], t, L, _dot)
    assert (abs(S - kappa_form) <= 1e-15 * sizes).all()


def reference_check(ts, cls):
    # 0.0 minus the most negative slack, pair by pair
    worst = 0.0
    trip = list(ts)
    for i, j in combinations(range(len(trip)), 2):
        for a, b in ((i, j), (j, i)):
            worst = min(worst, reference_slack(trip[a], trip[b], cls))
    return 0.0 - worst


def assert_matches_reference(ts, cls, exact):
    violation = check_interpolable(ts, cls)
    expected = reference_check(ts, cls)
    if exact:
        assert violation == expected
    else:
        assert abs(violation - expected) <= 1e-12 * max(1.0, expected)
    return violation


@pytest.mark.parametrize("d", [1, 2, 5, 22])
@given(
    n=st.integers(1, 60),
    kappa=st.floats(-3.0, 0.0, exclude_max=True),
    L=st.floats(0.5, 4.0),
    u=st.floats(0.1, 0.9),
    log_noise=st.integers(-5, 1),
    seed=st.integers(0, 2**32 - 1),
)
# n = 200 is five row blocks at d = 1, and the worst pair is in the third
@example(n=200, kappa=-1.0, L=2.0, u=0.5, log_noise=-1, seed=2)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_check_matches_pair_loop(d, n, kappa, L, u, log_noise, seed):
    # samples of a quadratic with curvature inside (mu, L), values perturbed
    # on the scale of |x_a - x_b|^2 ~ 2d
    cls = validate_class(kappa * L, L)
    curv = cls.mu + u * (cls.L - cls.mu)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    noise = 10.0**log_noise * d * rng.standard_normal(n)
    ts = TripletSet(xs, curv * xs, [0.5 * curv * float(x @ x) + e for x, e in zip(xs, noise)])
    assert_matches_reference(ts, cls, exact=d == 1)


def test_single_triplet_has_no_pair():
    ts = sample_quadratic_triplets(0.5, [np.array([1.0, 2.0])])
    assert assert_matches_reference(ts, validate_class(-1.0, 1.0), exact=True) == 0.0


@pytest.mark.parametrize("ts, violation", [
    # with g = 0, kappa = -1: slack(a, b) = f_a - f_b + (x_a - x_b)^2 / 4, so
    # slack(1, 0) = slack(0, 2) = -0.75 exactly
    (TripletSet([[0.0], [1.0], [-3.0]], [[0.0], [0.0], [0.0]], [0.0, -1.0, 3.0]), 0.75),
    # mirror-image triplets: slack(0, 1) and slack(1, 0) are the same sums
    (TripletSet([[-1.0], [1.0]], [[-2.0], [2.0]], [0.0, 0.0]), 3.0),
], ids=["two-pairs", "mirror-pair"])
def test_tied_violations_match_pair_loop(ts, violation):
    assert assert_matches_reference(ts, validate_class(-1.0, 1.0), exact=True) == violation


def test_memory_does_not_grow_with_pairs():
    # n = 3000 in d = 1: the n x n slack matrix alone would be 72 MB
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3000)
    ts = TripletSet(x[:, None], 0.5 * x[:, None], 0.25 * x * x)
    tracemalloc.start()
    try:
        violation = check_interpolable(ts, validate_class(-1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violation <= 1e-12
    assert peak < 8e6


def test_points_far_from_origin():
    # slacks depend on differences only; offsets on a 1/8 grid stay exact
    # at 1e9, where a Gram-matrix expansion would cancel catastrophically
    cls = validate_class(-0.5, 2.0)
    rng = np.random.default_rng(11)
    offsets = rng.integers(-32, 33, size=(12, 3)) / 8.0
    f = 0.5 * (offsets**2).sum(axis=1)
    f[4] -= 5.0  # one value too low: some pairs violate

    def triplets(shift):
        return TripletSet(shift + offsets, offsets, f)

    near = check_interpolable(triplets(0.0), cls)
    far = assert_matches_reference(triplets(1e9), cls, exact=False)
    assert far > 1e-9
    assert far == near
