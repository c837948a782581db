import dataclasses
import math
import warnings

import numpy as np
import pytest

from hypopep import gmlab
from hypopep.core import (
    CurvatureClass,
    DimensionMismatch,
    NumeratorKind,
    OracleTriplet,
    StepSchedule,
    TripletSet,
    ValidationError,
    validate_class,
)
from hypopep.gmlab import (
    BadEnvelopeParams,
    NonFiniteValue,
    TestProblem,
    ZeroMatrix,
    _grad_sq,
    convex_grad_monotonicity,
    estimate_f_star,
    export_trajectory_csv,
    ll_envelope_l0,
    load_matrix_csv,
    make_huber_problem,
    make_logistic_l0_problem,
    run_gm,
)
from hypopep.interpolation import check_interpolable, quadratic_bounds_check
from hypopep.rates import nstep_bound
from hypopep.worstcase import build_worst_case


def quadratic_problem(L=1.0):
    cls = CurvatureClass(mu=0.0, L=L)
    return TestProblem(
        name="quad",
        oracle=lambda x: (0.5 * L * float(x @ x), L * x),
        cls=cls,
        x0=np.array([1.0]),
        f_star_known=0.0,
    )


def test_run_gm_exact_step_on_quadratic():
    traj = run_gm(quadratic_problem(), StepSchedule((1.0,)))
    assert abs(float(traj.iterates[1].x[0])) < 1e-15
    assert traj.min_grad_sq == 0.0
    assert traj.min_grad_index == 1


def test_run_gm_recursion_and_min():
    tp = quadratic_problem(L=2.0)
    sched = StepSchedule((0.5, 0.7, 0.9))
    traj = run_gm(tp, sched)
    for i, h in enumerate(sched.steps):
        expected = traj.iterates[i].x - h / 2.0 * traj.iterates[i].g
        assert np.allclose(traj.iterates[i + 1].x, expected, atol=0.0)
    norms = [float(t.g @ t.g) for t in traj.iterates]
    assert traj.min_grad_sq == min(norms)


def test_run_gm_detects_nonfinite():
    tp = TestProblem(
        name="bad",
        oracle=lambda x: (float("nan"), x),
        cls=CurvatureClass(mu=0.0, L=1.0),
        x0=np.array([1.0]),
    )
    with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 0"):
        run_gm(tp, StepSchedule((1.0,)))


def _one_step_rate(t0, t1, h, cls):
    # min(|g_0|^2, |g_1|^2) and the one-step gap-to-last bound for f_0 - f_1
    gmin = min(float(t0.g @ t0.g), float(t1.g @ t1.g))
    bound = nstep_bound(cls, StepSchedule((h,)), t0.f - t1.f, NumeratorKind.gap_to_last).bound
    return gmin, bound


def test_one_step_certificate_quadratic():
    tp = quadratic_problem()
    traj = run_gm(tp, StepSchedule((0.5,)))
    cls = validate_class(0.0, 1.0)
    gmin, bound = _one_step_rate(traj.iterates[0], traj.iterates[1], 0.5, cls)
    assert gmin < bound
    # the pair's interpolation inequalities imply the descent lemma
    # f_0 - f_1 >= h (2 - h) |g_0|^2 / (2L), the (0, 1) slack at t = 0
    assert check_interpolable(traj.iterates, cls) <= 1e-9


def test_one_step_certificate_tight_on_worst_case():
    cls = validate_class(-1.0, 1.0)
    sched = StepSchedule((1.0, 0.5))
    w = build_worst_case(cls, sched, 1.0, NumeratorKind.gap_to_last)
    tp = TestProblem(
        name="wc",
        oracle=lambda x: w.eval(float(x[0])),
        cls=cls,
        x0=np.array([w.xs[0]]),
    )
    traj = run_gm(tp, sched)
    for i, h in enumerate(sched.steps):
        t0, t1 = traj.iterates[i], traj.iterates[i + 1]
        gmin, bound = _one_step_rate(t0, t1, h, cls)
        assert abs(gmin - bound) <= 1e-9 * bound  # tight along the worst case
        # at h = 1 the pair's (0, 1) slack is the combined two-coefficient inequality
        pair = TripletSet([t0.x, t1.x], [t0.g, t1.g], [t0.f, t1.f])
        assert check_interpolable(pair, cls) <= 1e-9


def test_monotonicity_on_convex_quadratic():
    tp = quadratic_problem()
    traj = run_gm(tp, StepSchedule((0.3, 1.0, 1.9)))
    rep = convex_grad_monotonicity(traj, tp.cls)
    assert rep.applicable and rep.passed


def test_monotonicity_skipped_for_hypoconvex():
    cls = validate_class(-1.0, 1.0)
    tp = quadratic_problem()
    traj = run_gm(tp, StepSchedule((0.5,)))
    rep = convex_grad_monotonicity(traj, cls)
    assert not rep.applicable and rep.passed


def test_huber_declared_L_is_the_top_eigenvalue():
    # the declared class must not undershoot the curvature, to the bit
    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 40))
    delta_h, mu_reg = 0.7, -1.0
    tp = make_huber_problem(A, rng.standard_normal(200), delta_h=delta_h, mu_reg=mu_reg)
    assert tp.cls.L == np.linalg.eigvalsh(A.T @ A)[-1] / delta_h + mu_reg


def test_huber_rejects_zero_matrix():
    with pytest.raises(ZeroMatrix):
        make_huber_problem(np.zeros((3, 2)), np.zeros(3), 1.0)


def test_huber_branch_continuity():
    # residual norm exactly delta_h: both gradient branches coincide
    tp = make_huber_problem(np.eye(3), np.zeros(3), delta_h=1.0)
    x = np.array([0.6, 0.8, 0.0])  # unit norm
    g_smooth = x / 1.0
    g_norm = x / np.linalg.norm(x)
    assert np.allclose(g_smooth, g_norm, atol=1e-15)
    assert np.allclose(tp.oracle(x)[1], g_smooth, atol=1e-15)


def test_huber_unit_gradient_branch():
    A = np.eye(3)
    tp = make_huber_problem(A, np.zeros(3), delta_h=1.0)
    x = np.array([3.0, 0.0, 0.0])
    _, g = tp.oracle(x)
    assert np.allclose(g, x / np.linalg.norm(x), atol=1e-14)


def test_huber_fixed_kappa_recovery():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 4))
    s = np.linalg.eigvalsh(A.T @ A)[-1]
    kappa = -0.5
    mu_reg = kappa / (1.0 - kappa) * s / 1.0
    tp = make_huber_problem(A, rng.standard_normal(10), delta_h=1.0, mu_reg=mu_reg)
    assert abs(tp.cls.kappa - kappa) < 1e-9


@pytest.mark.parametrize("w", [-0.1, -1e-300, math.nan, math.inf])
def test_logistic_rejects_a_negative_or_non_finite_weight(w):
    with pytest.raises(ValidationError, match="reg_weight"):
        make_logistic_l0_problem(np.eye(2), np.array([0.0, 1.0]), 2.0, 1.0, reg_weight=w)


@pytest.mark.parametrize("w", [0.0, 0.1, 1.0])
def test_logistic_declared_class_holds(w):
    rng = np.random.default_rng(12)
    A = 3.0 * rng.standard_normal((20, 3))
    y = (rng.uniform(size=20) < 0.5).astype(float)
    tp = make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=w)
    pairs = list(rng.uniform(-4.0, 4.0, size=(500, 2, 3)))
    assert quadratic_bounds_check(tp.oracle, tp.cls, pairs)


@pytest.mark.parametrize("make,v", [
    (lambda A, v: make_huber_problem(A, v, 1.0), np.zeros(2)),
    (lambda A, v: make_huber_problem(A, v, 1.0), np.zeros((3, 1))),
    (lambda A, v: make_logistic_l0_problem(A, v, 2.0, 1.0), np.zeros(4)),
])
def test_testbed_data_shapes(make, v):
    with pytest.raises(DimensionMismatch):
        make(np.ones((3, 2)), v)
    with pytest.raises(DimensionMismatch, match="matrix"):
        make(np.ones(3), np.zeros(3))


def test_envelope_reference_values():
    val, grad = ll_envelope_l0(np.array([0.0]), 2.0, 1.0)
    assert val[0] == 0.0 and grad[0] == 0.0
    val, grad = ll_envelope_l0(np.array([0.5]), 2.0, 1.0)
    assert abs(val[0] - 0.125) < 1e-15
    assert abs(grad[0] - 0.5) < 1e-15
    val, grad = ll_envelope_l0(np.array([5.0, -5.0]), 2.0, 1.0)
    assert np.all(val == 1.0) and np.all(grad == 0.0)


def test_envelope_continuity_at_breakpoints():
    lam, sig = 2.0, 1.0
    t = math.sqrt(2 * lam)
    inner = (1 - sig / lam) * t
    for b in (inner, t):
        eps = 1e-9
        v0, g0 = ll_envelope_l0(np.array([b - eps]), lam, sig)
        v1, g1 = ll_envelope_l0(np.array([b + eps]), lam, sig)
        assert abs(v0[0] - v1[0]) < 1e-8
        assert abs(g0[0] - g1[0]) < 1e-8


def test_envelope_class_membership():
    lam, sig = 2.0, 1.0
    cls = CurvatureClass(mu=-1.0 / sig, L=1.0 / (lam - sig))
    rng = np.random.default_rng(3)
    pairs = [
        (np.array([a]), np.array([b]))
        for a, b in rng.uniform(-4.0, 4.0, size=(300, 2))
    ]
    ok = quadratic_bounds_check(
        lambda x: (float(ll_envelope_l0(x, lam, sig)[0][0]), ll_envelope_l0(x, lam, sig)[1]),
        cls,
        pairs,
        tol=1e-9,
    )
    assert ok


def _masked_envelope(x, lam, sigma):
    # one gather and one scatter per branch; ll_envelope_l0 must match it bitwise
    ax = np.abs(x)
    t = math.sqrt(2.0 * lam)
    m1 = ax <= (1.0 - sigma / lam) * t
    m3 = ax >= t
    m2 = ~m1 & ~m3
    val, grad = np.empty_like(ax), np.empty_like(ax)
    val[m1] = x[m1] ** 2 / (2.0 * (lam - sigma))
    grad[m1] = x[m1] / (lam - sigma)
    val[m2] = 1.0 - (ax[m2] - t) ** 2 / (2.0 * sigma)
    grad[m2] = -np.sign(x[m2]) * (ax[m2] - t) / sigma
    val[m3] = 1.0
    grad[m3] = 0.0
    return val, grad


@pytest.mark.parametrize("lam, sig", [(2.0, 1.0), (0.7, 0.05), (3.3, 3.2)])
def test_envelope_bitwise_equal_to_masked_branches(lam, sig):
    t = math.sqrt(2.0 * lam)
    inner = (1.0 - sig / lam) * t
    edges = np.array([0.0, -0.0, inner, -inner, t, -t, np.nextafter(inner, 0.0),
                      np.nextafter(t, 0.0), np.nextafter(t, 9.0), 1e200, -1e300])
    x = np.concatenate([edges, np.random.default_rng(7).uniform(-1.5 * t, 1.5 * t, 400)])
    ref_val, ref_grad = _masked_envelope(x, lam, sig)
    assert {"inner", "cap", "flat"} <= {
        "inner" if abs(v) <= inner else "flat" if abs(v) >= t else "cap" for v in x
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow from the unused branches
        val, grad = ll_envelope_l0(x, lam, sig)
    assert val.tobytes() == ref_val.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("lam, sig", [(2.0, 1.0), (0.7, 0.05), (3.3, 3.2)])
def test_envelope_one_branch_path_bitwise_equal_to_masked_branches(lam, sig):
    # all-inner vectors take the one-branch path; one coordinate just past the
    # inner breakpoint sends the same vector through the three-branch path
    t = math.sqrt(2.0 * lam)
    inner = (1.0 - sig / lam) * t
    rng = np.random.default_rng(8)
    all_inner = [
        np.array([0.0, -0.0]),
        np.array([inner, -inner, 0.0, -0.0]),
        rng.uniform(-inner, inner, 40),
        np.concatenate([[inner, -inner], rng.uniform(-inner, inner, 200)]),
    ]
    one_past = []
    for x in all_inner:
        assert (np.abs(x) <= inner).all()
        y = x.copy()
        y[len(y) // 2] = np.nextafter(inner, 9.0)
        one_past += [y, -y]
    for x in all_inner + one_past:
        ref_val, ref_grad = _masked_envelope(x, lam, sig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, grad = ll_envelope_l0(x, lam, sig)
        assert val.tobytes() == ref_val.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


def test_envelope_rejects_bad_params():
    with pytest.raises(BadEnvelopeParams):
        ll_envelope_l0(np.array([0.0]), 1.0, 1.0)
    with pytest.raises(BadEnvelopeParams):
        make_logistic_l0_problem(np.eye(2), np.zeros(2), 1.0, 2.0, 0.1)


def finite_difference_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


@pytest.mark.parametrize("factory", ["huber", "logistic"])
def test_gradients_match_finite_differences(factory):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 5))
    if factory == "huber":
        tp = make_huber_problem(A, rng.standard_normal(12), delta_h=0.8, mu_reg=-0.1)
    else:
        y = (rng.uniform(size=12) < 0.5).astype(float)
        tp = make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.1)
    for _ in range(20):
        x = rng.standard_normal(5)
        _, g = tp.oracle(x)
        fd = finite_difference_grad(lambda z: tp.oracle(z)[0], x)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g - fd) / denom < 1e-5


def test_bound_respect_randomized():
    rng = np.random.default_rng(5)
    for trial in range(10):
        A = rng.standard_normal((10, 4))
        tp = make_huber_problem(A, rng.standard_normal(10), delta_h=1.0,
                                x0=rng.standard_normal(4))
        f_star = estimate_f_star(tp, n_iter=300)
        sched = StepSchedule(tuple(rng.uniform(0.2, 1.4, size=5)))
        traj = run_gm(tp, sched)
        delta = traj.iterates[0].f - f_star
        if delta <= 0:
            continue
        bound = nstep_bound(tp.cls, sched, delta, NumeratorKind.gap_to_optimal).bound
        assert traj.min_grad_sq <= bound + 1e-9


def test_csv_io(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    M = load_matrix_csv(str(path))
    assert M.shape == (2, 2) and M[1, 1] == 4.0
    tp = quadratic_problem()
    traj = run_gm(tp, StepSchedule((0.5, 0.5)))
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, tp, str(out))
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "iter,h,f,grad_norm_sq,min_grad_norm_sq_so_far,bound_so_far"
    assert len(rows) == 4


# --- one oracle call per iterate -------------------------------------------


def test_run_gm_calls_oracle_once_per_iterate():
    calls = []

    def oracle(x):
        calls.append(x.copy())
        return 0.5 * float(x @ x), x.copy()

    tp = TestProblem(name="count", oracle=oracle, cls=CurvatureClass(mu=0.0, L=1.0),
                     x0=np.array([1.0, -2.0]))
    sched = StepSchedule((0.5, 0.7, 0.9, 1.1))
    traj = run_gm(tp, sched)
    assert len(calls) == sched.n + 1
    for x, t in zip(calls, traj.iterates):
        assert np.array_equal(x, t.x)


def _huber_reference(A, b, delta_h, mu_reg):
    # the two-function arithmetic the one-call oracle must reproduce bitwise
    def f_eval(x):
        r = A @ x - b
        nr = float(np.linalg.norm(r))
        if nr <= delta_h:
            hub = nr * nr / (2.0 * delta_h)
        else:
            hub = nr - delta_h / 2.0
        return hub + 0.5 * mu_reg * float(x @ x)

    def grad_eval(x):
        r = A @ x - b
        nr = float(np.linalg.norm(r))
        if nr <= delta_h:
            g = A.T @ r / delta_h
        else:
            g = A.T @ r / nr
        return g + mu_reg * x

    return f_eval, grad_eval


def _logistic_reference(A, y, lam, sigma, reg_weight):
    n_data = A.shape[0]

    def softplus(t):
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def f_eval(x):
        t = A @ x
        loss = float(np.mean(softplus(t) - y * t))
        if reg_weight == 0.0:
            return loss
        val, _ = ll_envelope_l0(x, lam, sigma)
        return loss + reg_weight * float(val.sum())

    def grad_eval(x):
        t = A @ x
        sig = 1.0 / (1.0 + np.exp(-t))
        g = A.T @ (sig - y) / n_data
        if reg_weight == 0.0:
            return g
        _, gv = ll_envelope_l0(x, lam, sigma)
        return g + reg_weight * gv

    return f_eval, grad_eval


def _assert_bitwise(tp, f_ref, g_ref, x):
    f, g = tp.oracle(x)
    assert isinstance(f, float)
    assert np.float64(f).tobytes() == np.float64(f_ref(x)).tobytes()
    expected = np.asarray(g_ref(x))
    assert g.dtype == expected.dtype and g.shape == expected.shape
    assert g.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mu_reg", [0.0, 0.3, -0.2])
def test_huber_oracle_bitwise_equals_two_function_form(mu_reg):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((9, 4))
    x_c = rng.standard_normal(4)
    b = A @ x_c
    delta_h = 0.7
    tp = make_huber_problem(A, b, delta_h, mu_reg)
    f_ref, g_ref = _huber_reference(A, b, delta_h, mu_reg)
    branches = set()
    for scale in (0.0, 1e-3, 1e-2, 0.05, 0.3, 1.0, 10.0):
        for _ in range(4):
            x = x_c + scale * rng.standard_normal(4)
            branches.add(float(np.linalg.norm(A @ x - b)) <= delta_h)
            _assert_bitwise(tp, f_ref, g_ref, x)
    assert branches == {True, False}


@pytest.mark.parametrize("reg_weight", [0.0, 0.1, 2.5])
def test_logistic_oracle_bitwise_equals_two_function_form(reg_weight):
    rng = np.random.default_rng(12)
    lam, sigma = 2.0, 1.0
    A = rng.standard_normal((14, 6))
    y = (rng.uniform(size=14) < 0.5).astype(float)
    tp = make_logistic_l0_problem(A, y, lam, sigma, reg_weight=reg_weight)
    f_ref, g_ref = _logistic_reference(A, y, lam, sigma, reg_weight)
    # |x| <= 1 is the inner quadratic, 1 < |x| < 2 the cap, |x| >= 2 the constant
    fixed = np.array([0.5, -1.5, 3.0, -0.2, 1.0, -2.0])
    _assert_bitwise(tp, f_ref, g_ref, fixed)
    for scale in (0.1, 1.0, 3.0, 40.0):
        for _ in range(4):
            _assert_bitwise(tp, f_ref, g_ref, scale * rng.standard_normal(6))


def test_run_gm_nan_gradient_raises_nonfinite():
    def oracle(x):
        g = x.copy()
        if x[0] < 1.0:
            g[1] = np.nan
        return 0.5 * float(x @ x), g

    tp = TestProblem(name="nan_g", oracle=oracle, cls=CurvatureClass(mu=0.0, L=1.0),
                     x0=np.array([2.0, 1.0]))
    with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 1"):
        run_gm(tp, StepSchedule((0.9, 0.9)))


def test_run_gm_overflowing_iterate_raises_nonfinite():
    # the step (h / L) g overflows, so x_1 is infinite while f and g stay finite
    tp = TestProblem(name="overflow", oracle=lambda x: (0.0, np.array([1e308])),
                     cls=CurvatureClass(mu=0.0, L=1e-3), x0=np.array([-1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 1"):
            run_gm(tp, StepSchedule((1.0, 1.0)))


# --- the stacked-row kernel ------------------------------------------------


def test_length_one_gradient_raises_dimension_mismatch():
    # a row assignment would broadcast the length-1 gradient over the 3-vector
    tp = TestProblem(name="short_g", oracle=lambda x: (0.0, np.array([1.0])),
                     cls=CurvatureClass(mu=0.0, L=1.0), x0=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        run_gm(tp, StepSchedule((0.5, 0.5)))
    with pytest.raises(DimensionMismatch):
        estimate_f_star(tp, n_iter=5)


def test_run_gm_stops_calling_the_oracle_at_a_nan_value():
    calls = []

    def oracle(x):
        calls.append(x.copy())
        return (float("nan") if len(calls) == 3 else 0.5 * float(x @ x)), x.copy()

    tp = TestProblem(name="nan_f", oracle=oracle, cls=CurvatureClass(mu=0.0, L=1.0),
                     x0=np.array([1.0, -2.0]))
    with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 2"):
        run_gm(tp, StepSchedule((0.5,) * 5))
    assert len(calls) == 3


def _run_gm_reference(tp, sched):
    # the per-triplet loop the kernel replaced; run_gm must reproduce it bitwise
    x = np.atleast_1d(np.asarray(tp.x0, dtype=float)).copy()
    trips = []
    for i in range(sched.n + 1):
        f, g = tp.oracle(x)
        trips.append(OracleTriplet(x, np.atleast_1d(np.asarray(g, dtype=float)), float(f)))
        if i < sched.n:
            x = x - (sched.steps[i] / tp.cls.L) * trips[-1].g
    return trips, [float(t.g @ t.g) for t in trips]


def _kernel_test_problems():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((30, 7))
    w = rng.standard_normal(7)
    huber = make_huber_problem(A, A @ w + 0.1 * rng.standard_normal(30), delta_h=1.0,
                               mu_reg=-1.0)
    y = (rng.uniform(size=30) < 1.0 / (1.0 + np.exp(-A @ w))).astype(float)
    logistic = make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.1,
                                        x0=rng.standard_normal(7))
    cls = validate_class(-1.0, 1.0)
    wcf = build_worst_case(cls, StepSchedule((0.3, 1.0, 0.6, 0.9)), 1.0,
                           NumeratorKind.gap_to_optimal)
    worst = TestProblem(name="worst_case", oracle=lambda x: wcf.eval(float(x[0])), cls=cls,
                        x0=np.array([wcf.xs[0]]))
    return {"huber": huber, "logistic_l0": logistic, "worst_case": worst,
            "logistic_l0_certify": _certify_logistic_problem()}


def _certify_huber_problem():
    # the shape of the benchmark's Huber testbed items: 200 x 40, mu_reg = -1, from x0 = 0
    rng = np.random.default_rng(15)
    A = rng.standard_normal((200, 40))
    w = rng.standard_normal(40)
    return make_huber_problem(A, A @ w + 0.1 * rng.standard_normal(200), delta_h=1.0,
                              mu_reg=-1.0)


def _certify_logistic_problem():
    # the shape of the benchmark's logistic testbed items: 200 x 40 from x0 = 0
    rng = np.random.default_rng(15)
    A = rng.standard_normal((200, 40))
    w = rng.standard_normal(40)
    y = (rng.uniform(size=200) < 1.0 / (1.0 + np.exp(-A @ w))).astype(float)
    return make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.1)


def test_certify_shaped_logistic_run_stays_in_the_inner_branch():
    # every iterate has |x_i| <= 1, the inner breakpoint for lambda = 2, sigma = 1,
    # so the kernel case above pins the envelope's one-branch path
    tp = _certify_logistic_problem()
    trips, _ = _run_gm_reference(tp, StepSchedule.constant(1.0, 300))
    assert max(float(np.abs(t.x).max()) for t in trips) <= 1.0


@pytest.mark.parametrize("d", [1, 2, 7, 40, 200])
@pytest.mark.parametrize("rows", [1, 2, 2001])
def test_grad_sq_bitwise_equals_per_row_dot(d, rows):
    G = np.random.default_rng(16).standard_normal((rows, d)) * np.logspace(-3, 3, rows)[:, None]
    got = _grad_sq(G)
    ref = np.array([float(g @ g) for g in G])
    assert got.shape == (rows,) and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["huber", "logistic_l0", "worst_case", "logistic_l0_certify"])
def test_kernel_bitwise_equals_per_triplet_loop(name):
    tp = _kernel_test_problems()[name]
    sched = StepSchedule(tuple(np.random.default_rng(14).uniform(0.2, 1.2, size=25)))
    traj = run_gm(tp, sched)
    trips, norms = _run_gm_reference(tp, sched)
    assert len(traj.iterates) == len(trips)
    for t, r in zip(traj.iterates, trips):
        assert t.x.tobytes() == r.x.tobytes() and t.g.tobytes() == r.g.tobytes()
        assert type(t.f) is float and np.float64(t.f).tobytes() == np.float64(r.f).tobytes()
    idx = int(np.argmin(norms))
    assert (traj.min_grad_sq, traj.min_grad_index) == (norms[idx], idx)

    trips, norms = _run_gm_reference(tp, StepSchedule.constant(1.0, 300))
    ref = min(t.f - gsq / (2.0 * tp.cls.L) for t, gsq in zip(trips, norms))
    assert np.float64(estimate_f_star(tp, n_iter=300)).tobytes() == np.float64(ref).tobytes()


# --- estimate_f_star stops at the first repeated iterate --------------------


def _counting(tp):
    calls = []

    def oracle(x):
        calls.append(x.copy())
        return tp.oracle(x)

    return dataclasses.replace(tp, oracle=oracle), calls


def _reference_f_star(tp, n_iter):
    # the minimum over the full constant-step run, no stop
    trips, norms = _run_gm_reference(tp, StepSchedule.constant(1.0, n_iter))
    return min(t.f - gsq / (2.0 * tp.cls.L) for t, gsq in zip(trips, norms))


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("name", ["huber_certify", "logistic_l0_certify", "huber", "logistic_l0"])
def test_estimate_f_star_bitwise_equals_the_full_run(name):
    problems = dict(_kernel_test_problems(), huber_certify=_certify_huber_problem())
    tp, calls = _counting(problems[name])
    assert _bits(estimate_f_star(tp, n_iter=2000)) == _bits(_reference_f_star(problems[name], 2000))
    if name.endswith("_certify"):
        assert len(calls) < 2001  # the run really stopped at a repeat


def _fixed_point_problem():
    return TestProblem(name="fixed_point", oracle=lambda x: (0.5 * float(x @ x), x.copy()),
                       cls=CurvatureClass(mu=0.0, L=1.0), x0=np.array([1.0, -2.0]))


def _period_two_problem():
    # x -> x - 2x = -x, so the iterates alternate between x0 and -x0
    return TestProblem(name="period_two", oracle=lambda x: (float(x @ x), 2.0 * x),
                       cls=CurvatureClass(mu=0.0, L=1.0), x0=np.array([1.0, -2.0]))


@pytest.mark.parametrize("make, expected", [(_fixed_point_problem, 0.0),
                                            (_period_two_problem, -5.0)])
def test_estimate_f_star_stops_after_two_calls(make, expected):
    tp, calls = _counting(make())
    got = estimate_f_star(tp, n_iter=2000)
    assert len(calls) == 2
    assert _bits(got) == _bits(expected) == _bits(_reference_f_star(make(), 2000))


def test_run_gm_does_not_stop_at_a_repeat():
    tp, calls = _counting(_fixed_point_problem())
    traj = run_gm(tp, StepSchedule.constant(1.0, 6))
    assert len(calls) == 7 and len(traj.iterates) == 7


def test_hash_collisions_do_not_stop_the_run(monkeypatch):
    # every iterate gets the same hash, so only the byte comparison tells a repeat
    monkeypatch.setattr(gmlab, "hash", lambda key: 0, raising=False)
    tp = _kernel_test_problems()["huber"]
    counted, calls = _counting(tp)
    assert _bits(estimate_f_star(counted, n_iter=300)) == _bits(_reference_f_star(tp, 300))
    assert len(calls) == 301
    tp, calls = _counting(_period_two_problem())
    estimate_f_star(tp, n_iter=300)
    assert len(calls) == 2


def test_repeated_non_finite_iterate_raises_at_the_same_index():
    # x_1 overflows to -inf and x_2 = -inf repeats it bytewise; the full run names iterate 1
    tp, calls = _counting(TestProblem(name="overflow", oracle=lambda x: (0.0, np.array([1e308])),
                                      cls=CurvatureClass(mu=0.0, L=1e-3),
                                      x0=np.array([-1e308])))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 1"):
            estimate_f_star(tp, n_iter=50)
        assert len(calls) == 2
        with pytest.raises(NonFiniteValue, match="non-finite oracle output at iterate 1"):
            run_gm(tp, StepSchedule.constant(1.0, 50))
