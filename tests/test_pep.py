import numpy as np
import pytest

from hypopep.core import NumeratorKind, StepSchedule, ValidationError, validate_class
from hypopep.interpolation import check_interpolable, slack_matrix
from hypopep.pep import PepProblem, build_sdp, extract_triplets
from hypopep.rates import nstep_bound, one_step_p
from hypopep.sdpsolver import solve


def make(kappa, steps, delta=1.0, kind=NumeratorKind.gap_to_optimal, L=1.0):
    cls = validate_class(kappa * L, L)
    return PepProblem(cls, StepSchedule(tuple(steps)), delta, kind)


def count_labels(prob, prefix):
    return sum(1 for c in prob.constraints if c.label.startswith(prefix))


def test_constraint_counts_one_step_last():
    sdp = build_sdp(make(-1.0, [1.0], kind=NumeratorKind.gap_to_last))
    assert sdp.gram_dim == 3
    assert count_labels(sdp, "interp") == 2
    assert count_labels(sdp, "descent") == 0
    assert count_labels(sdp, "initial") == 1
    assert count_labels(sdp, "epigraph") == 2
    assert sdp.var_names == ("f_0", "l")


def test_constraint_counts_one_step_optimal():
    sdp = build_sdp(make(-1.0, [1.0], kind=NumeratorKind.gap_to_optimal))
    assert sdp.gram_dim == 3
    assert count_labels(sdp, "interp") == 6  # (N+2)(N+1) ordered pairs
    assert count_labels(sdp, "descent") == 2
    assert count_labels(sdp, "initial") == 1
    assert count_labels(sdp, "epigraph") == 2
    assert sdp.var_names == ("f_0", "f_1", "l")


def test_rejects_unbounded_class():
    cls = validate_class(0.0, 1.0, unbounded_below=True)
    with pytest.raises(ValidationError):
        PepProblem(cls, StepSchedule((1.0,)), 1.0, NumeratorKind.gap_to_last)


def test_rejects_nonpositive_delta():
    cls = validate_class(-1.0, 1.0)
    with pytest.raises(ValidationError):
        PepProblem(cls, StepSchedule((1.0,)), 0.0, NumeratorKind.gap_to_last)


def test_one_step_identity_gap_to_last():
    # the N=1 optimum is exactly 2 L delta / p(h, kappa)
    for kappa, h in ((-1.0, 0.5), (-0.5, 1.2), (-2.0, 1.0)):
        sol = solve(build_sdp(make(kappa, [h], kind=NumeratorKind.gap_to_last)))
        ref = 2.0 / one_step_p(h, kappa)
        assert abs(sol.objective - ref) / ref < 1e-6


def test_optimum_matches_analytic_bound():
    cls = validate_class(-1.0, 1.0)
    sched = StepSchedule((1.0, 0.5))
    sol = solve(build_sdp(PepProblem(cls, sched, 1.0, NumeratorKind.gap_to_optimal)))
    ref = nstep_bound(cls, sched, 1.0, NumeratorKind.gap_to_optimal).bound
    assert abs(sol.objective - ref) / ref < 1e-6


def test_homogeneity():
    sched = [1.0]
    base = solve(build_sdp(make(-1.0, sched, delta=1.0, L=1.0))).objective
    scaled = solve(build_sdp(make(-1.0, sched, delta=3.0, L=2.0))).objective
    assert abs(scaled - 6.0 * base) / scaled < 1e-7


def test_monotone_in_N():
    # more iterations can only decrease the worst-case measure
    vals = []
    for n in (1, 2, 3):
        sol = solve(build_sdp(make(-1.0, [1.0] * n)))
        vals.append(sol.objective)
    assert vals[0] > vals[1] > vals[2]


def test_extract_triplets_feasible_and_consistent():
    p = make(-1.0, [1.0, 0.5], kind=NumeratorKind.gap_to_optimal)
    sol = solve(build_sdp(p))
    ts = extract_triplets(p, sol)
    # N+1 iterates plus the optimal point
    assert len(ts) == 4
    report = check_interpolable(ts, p.cls, tol=1e-6)
    assert report.feasible
    # step recursion holds among the extracted iterates
    for i, h in enumerate(p.sched.steps):
        lhs = ts.triplets[i + 1].x
        rhs = ts.triplets[i].x - h / p.cls.L * ts.triplets[i].g
        assert np.allclose(lhs, rhs, atol=1e-10)
    # the worst case saturates the initial condition
    assert abs(ts.triplets[0].f - p.delta) < 1e-5


def test_extract_triplets_gap_to_last():
    p = make(-0.5, [0.75], kind=NumeratorKind.gap_to_last)
    sol = solve(build_sdp(p))
    ts = extract_triplets(p, sol)
    assert len(ts) == 2
    assert abs(ts.triplets[-1].f) < 1e-12  # pinned last value


# The interpolation rows against the inequality evaluated on triplets, and
# against a per-pair assembly with its own copy of the inequality.
CASES = [
    (kappa, kind, steps, L)
    for kappa in (0.0, -1.0, -0.37, -2.6)
    for kind in NumeratorKind
    for steps, L in (((1.0,), 1.0), ((0.4, 1.7, 1.2), 2.5), ((1.3, 0.2, 0.9, 1.5, 0.6, 1.0), 0.8))
]


def gram_points(p):
    """Label -> (gradient, iterate) coefficients over [g_0, ..., g_N, x_0]."""
    N, n = p.sched.n, p.gram_dim
    e = np.eye(n)
    pts = {}
    x = e[N + 1]
    for i in range(N + 1):
        pts[str(i)] = (e[i], x)
        if i < N:
            x = x - (p.sched.steps[i] / p.cls.L) * e[i]
    if p.init_kind == NumeratorKind.gap_to_optimal:
        pts["*"] = (np.zeros(n), np.zeros(n))
    return pts


def interp_rows(sdp):
    for c in sdp.constraints:
        if c.label.startswith("interp["):
            a, b = c.label[len("interp["):-1].split(",")
            yield a, b, c


def reference_interp_matrix(pi, pj, cls):
    def sym(u, v):
        m = np.outer(u, v)
        return 0.5 * (m + m.T)

    mu, L = cls.mu, cls.L
    kappa = mu / L
    (gi, xi), (gj, xj) = pi, pj
    dg, dx = gi - gj, xi - xj
    A = -sym(gj, dx)
    scale = 1.0 / (2.0 * (1.0 - kappa))
    A -= scale * (sym(dg, dg) / L + mu * sym(dx, dx) - 2.0 * kappa * sym(dg, dx))
    return A


@pytest.mark.parametrize("kappa,kind,steps,L", CASES)
def test_interp_rows_match_per_pair_reference(kappa, kind, steps, L):
    p = make(kappa, steps, kind=kind, L=L)
    sdp = build_sdp(p)
    pts = gram_points(p)
    rows = list(interp_rows(sdp))
    assert [(a, b) for a, b, _ in rows] == [(a, b) for a in pts for b in pts if a != b]
    for a, b, c in rows:
        ref = reference_interp_matrix(pts[a], pts[b], p.cls)
        if kappa in (0.0, -1.0):  # 2(1 - kappa) is a power of two
            assert np.array_equal(c.A, ref)
        else:
            assert np.abs(c.A - ref).max() <= 1e-15 * np.abs(ref).max()
        lin = {f"f_{v}": s for v, s in ((a, 1.0), (b, -1.0)) if f"f_{v}" in sdp.var_names}
        assert c.lin == lin and c.const == 0.0


@pytest.mark.parametrize("kappa,kind,steps,L", CASES)
def test_interp_rows_evaluate_to_triplet_slacks(kappa, kind, steps, L):
    # <A_ab, P^T P> + f_a - f_b is the slack of the triplets x = P c_x, g = P c_g
    p = make(kappa, steps, kind=kind, L=L)
    sdp = build_sdp(p)
    pts = gram_points(p)
    rng = np.random.default_rng(0)
    for _ in range(3):
        P = rng.standard_normal((p.gram_dim, p.gram_dim))
        values = {v: rng.standard_normal() for v in sdp.var_names}
        X = np.array([P @ x for _, x in pts.values()])
        G = np.array([P @ g for g, _ in pts.values()])
        f = np.array([values.get(f"f_{name}", 0.0) for name in pts])
        S = slack_matrix(X, G, f, p.cls)
        index = {name: i for i, name in enumerate(pts)}
        gram = P.T @ P
        for a, b, c in interp_rows(sdp):
            row = np.sum(c.A * gram) + sum(s * values[v] for v, s in c.lin.items()) + c.const
            slack = S[index[a], index[b]]
            assert abs(row - slack) <= 1e-12 * max(1.0, abs(slack))
