import dataclasses
import tracemalloc

import numpy as np
import pytest

from hypopep import pep, sdpsolver
from hypopep.core import (
    CurvatureClass,
    NumeratorKind,
    StepSchedule,
    ValidationError,
    validate_class,
)
from hypopep.interpolation import DegenerateClass, check_interpolable, slack_matrix
from hypopep.pep import PepProblem, SolverFailure, build_sdp, extract_triplets, solve_pep
from hypopep.rates import nstep_bound, one_step_p
from hypopep.sdpsolver import (
    ProblemTooLarge,
    SolveStatus,
    VerificationReport,
    _cost,
    solve,
    svec,
)


def make(kappa, steps, delta=1.0, kind=NumeratorKind.gap_to_optimal, L=1.0):
    cls = validate_class(kappa * L, L)
    return PepProblem(cls, StepSchedule(tuple(steps)), delta, kind)


def count_labels(prob, prefix):
    return sum(1 for label in prob.constraints.labels if label.startswith(prefix))


def test_constraint_counts_one_step_last():
    sdp = build_sdp(make(-1.0, [1.0], kind=NumeratorKind.gap_to_last))
    assert sdp.gram_dim == 2  # [g_0, g_1]: x_0 is the origin
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


def test_rejects_degenerate_class():
    # t = 1 / (1 - kappa) has no value at mu = L: a typed error at construction
    with pytest.raises(DegenerateClass) as info:
        PepProblem(CurvatureClass(mu=2.0, L=2.0), StepSchedule((1.0,)), 1.0,
                   NumeratorKind.gap_to_last)
    assert isinstance(info.value, ValidationError)


@pytest.mark.parametrize("kind", list(NumeratorKind))
@pytest.mark.parametrize("steps", [(1.0,), (1.0, 1.0, 1.0), (0.5, 1.5, 1.9), (1.9, 1.9),
                                   (0.3, 0.7, 1.0, 0.2)])
def test_unbounded_below_matches_rate(steps, kind):
    # t = 0: the rows are the descent lemma alone, the kappa -> -inf limit
    cls = validate_class(0.0, 1.0, unbounded_below=True)
    p = PepProblem(cls, StepSchedule(steps), 1.0, kind)
    ref = nstep_bound(cls, p.sched, 1.0, kind).bound
    assert abs(solve_pep(p).objective - ref) <= 1e-8 * ref


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
    base = solve_pep(make(-1.0, sched, delta=1.0, L=1.0)).objective
    scaled = solve_pep(make(-1.0, sched, delta=3.0, L=2.0)).objective
    assert scaled == 2.0 * 3.0 * base


def test_rows_are_held_once():
    # numpy reports its buffers to tracemalloc. At N = 40 the row matrix is
    # 13.6 MB: build_sdp writes it in place from bounded blocks, and solve
    # reads it as its B, without a copy, and keeps one Newton system at a time
    p = make(-1.0, [1.0] * 40)
    tracemalloc.start()
    try:
        sdp = build_sdp(p)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sol = solve(sdp)
        solve_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sol.status == SolveStatus.Optimal
    rows = sdp.constraints.B.nbytes
    assert build_peak <= 1.5 * rows, build_peak / rows
    assert solve_peak <= 3.0 * rows, solve_peak / rows


def test_build_sdp_is_unit_scale():
    # the rows do not depend on L or delta; solve_pep maps only the optimum
    base = build_sdp(make(-0.37, [0.4, 1.7]))
    for L, delta in ((2.5, 1e6), (1e-8, 3.0), (1e8, 1e-8)):
        c = build_sdp(make(-0.37, [0.4, 1.7], L=L, delta=delta)).constraints
        assert np.array_equal(c.B, base.constraints.B)
        assert np.array_equal(c.const, base.constraints.const)


@pytest.mark.parametrize("kind", list(NumeratorKind))
@pytest.mark.parametrize("L, delta", [(1e-6, 1e6), (1e4, 1e-4), (2.5, 3.0), (1e-8, 1e-8)])
def test_solve_pep_maps_to_user_units(L, delta, kind):
    # solve_pep returns the solver's unit-scale solution bit for bit, with only
    # the optimum in user units: L delta times the unit one
    p = make(-2.0, [1.3, 0.6, 1.1], kind=kind, L=L, delta=delta)
    unit = solve(build_sdp(p))
    sol = solve_pep(p)
    assert sol.objective == unit.objective * (L * delta)
    assert sol.linear_values["l"] == unit.objective
    assert [v.hex() for v in sol.linear_values.values()] == [
        v.hex() for v in unit.linear_values.values()]
    assert sol.gram.tobytes() == unit.gram.tobytes()
    assert sol.duals.tobytes() == unit.duals.tobytes()
    # extract_triplets maps the unit triplets to user units: the step
    # recursion with h_i / L, values and gradients on the scales delta and
    # L delta, and the interpolation conditions of p.cls, whose slacks are
    # delta times the unit ones
    ts = extract_triplets(p, sol)
    assert check_interpolable(ts, p.cls, tol=1e-6 * delta).feasible
    xs = [t.x for t in ts]
    for i, h in enumerate(p.sched.steps):
        step = xs[i] - h / L * ts[i].g
        assert np.abs(xs[i + 1] - step).max() <= 1e-14 * max(np.abs(x).max() for x in xs)
    assert abs(ts[0].f - delta) <= 1e-6 * delta
    min_g2 = min(float(t.g @ t.g) for t in list(ts)[: p.sched.n + 1])
    assert abs(min_g2 - sol.objective) <= 1e-6 * sol.objective


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
        lhs = ts[i + 1].x
        rhs = ts[i].x - h / p.cls.L * ts[i].g
        assert np.allclose(lhs, rhs, atol=1e-10)
    # the worst case saturates the initial condition
    assert abs(ts[0].f - p.delta) < 1e-5


def test_extract_triplets_gap_to_last():
    p = make(-0.5, [0.75], kind=NumeratorKind.gap_to_last)
    sol = solve(build_sdp(p))
    ts = extract_triplets(p, sol)
    assert len(ts) == 2
    assert abs(ts[-1].f) < 1e-12  # pinned last value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_triplets_checks_where_user_units_overflow():
    # |x_1 - x_0|^2 ~ 1e400 overflows a double in user units, where every
    # off-diagonal slack would be inf; at unit scale the slacks are finite,
    # so a value moved 0.1 delta off the worst case (0.1 in the unit values
    # that solve_pep returns) is still caught
    p = make(-1.0, [1.0], kind=NumeratorKind.gap_to_last, L=1e-200, delta=1e200)
    sol = solve_pep(p)
    assert len(extract_triplets(p, sol)) == 2
    values = dict(sol.linear_values, f_0=sol.linear_values["f_0"] - 0.1)
    with pytest.raises(pep.InterpolationFailure):
        extract_triplets(p, dataclasses.replace(sol, linear_values=values))


@pytest.mark.parametrize("kind", list(NumeratorKind))
def test_every_gram_coordinate_enters_a_row(kind):
    # the basis holds only coordinates the rows use: no all-zero Gram row and
    # column, so every index has a nonzero svec entry in its row or column
    # of some row; gap-to-last has no x_0 coordinate and its x_0 is the origin
    rng = np.random.default_rng(18)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        p = make(-float(rng.uniform(0.0, 3.0)), rng.uniform(0.05, 1.5, n).tolist(), delta=3.0,
                 kind=kind, L=2.5)
        sdp = build_sdp(p)
        B, dim = sdp.constraints.B, p.gram_dim
        assert dim == n + 1 + (kind == NumeratorKind.gap_to_optimal)
        assert B.shape[1] == dim * (dim + 1) // 2 + len(sdp.var_names)
        i, j = np.triu_indices(dim)
        used = np.any(B[:, : len(i)] != 0.0, axis=0)
        assert all(used[(i == c) | (j == c)].any() for c in range(dim))
        if kind == NumeratorKind.gap_to_last:
            x0 = extract_triplets(p, solve_pep(p))[0].x
            assert np.array_equal(x0, np.zeros_like(x0))


# The interpolation rows against the inequality evaluated on triplets, and
# against a per-pair assembly with its own copy of the inequality. The rows
# are built at unit scale, so L only checks that they do not depend on it.
CASES = [
    (kappa, kind, steps, L)
    for kappa in (0.0, -1.0, -0.37, -2.6)
    for kind in NumeratorKind
    for steps, L in (((1.0,), 1.0), ((0.4, 1.7, 1.2), 2.5), ((1.3, 0.2, 0.9, 1.5, 0.6, 1.0), 0.8))
]


def gram_points(p):
    """Label -> unit-scale (gradient, iterate) coefficients over [g_0, ..., g_N, x_0]
    for gap_to_optimal and over [g_0, ..., g_N], with x_0 = 0, for gap_to_last."""
    N, n = p.sched.n, p.gram_dim
    opt = p.init_kind == NumeratorKind.gap_to_optimal
    e = np.eye(n)
    pts = {}
    x = e[N + 1] if opt else np.zeros(n)
    for i in range(N + 1):
        pts[str(i)] = (e[i], x)
        if i < N:
            x = x - p.sched.steps[i] * e[i]
    if opt:
        pts["*"] = (np.zeros(n), np.zeros(n))
    return pts


def interp_rows(sdp):
    """(a, b, row index) of every interpolation row."""
    for r, label in enumerate(sdp.constraints.labels):
        if label.startswith("interp["):
            a, b = label[len("interp["):-1].split(",")
            yield a, b, r


def reference_interp_matrix(pi, pj, cls):
    """The inequality at L = 1 in t = 1 / (1 - kappa):
    -<g_j, dx> - (t |dg|^2 - (1 - t) |dx|^2) / 2 - (1 - t) <dg, dx>."""
    def sym(u, v):
        m = np.outer(u, v)
        return 0.5 * (m + m.T)

    t = 1.0 / (1.0 - cls.mu / cls.L)
    (gi, xi), (gj, xj) = pi, pj
    dg, dx = gi - gj, xi - xj
    A = -sym(gj, dx)
    A -= 0.5 * (t * sym(dg, dg) - (1.0 - t) * sym(dx, dx))
    A -= (1.0 - t) * sym(dg, dx)
    return A


@pytest.mark.parametrize("kappa,kind,steps,L", CASES)
def test_interp_rows_match_per_pair_reference(kappa, kind, steps, L):
    p = make(kappa, steps, kind=kind, L=L)
    sdp = build_sdp(p)
    pts = gram_points(p)
    rows = list(interp_rows(sdp))
    assert [(a, b) for a, b, _ in rows] == [(a, b) for a in pts for b in pts if a != b]
    c = sdp.constraints
    sd = p.gram_dim * (p.gram_dim + 1) // 2
    for a, b, r in rows:
        ref = svec(reference_interp_matrix(pts[a], pts[b], p.cls))
        if kappa in (0.0, -1.0):  # t and 1 - t are powers of two
            assert np.array_equal(c.B[r, :sd], ref)
        else:
            assert np.abs(c.B[r, :sd] - ref).max() <= 1e-15 * np.abs(ref).max()
        lin = {f"f_{v}": s for v, s in ((a, 1.0), (b, -1.0)) if f"f_{v}" in sdp.var_names}
        assert np.array_equal(c.B[r, sd:], [lin.get(v, 0.0) for v in sdp.var_names])
        assert c.const[r] == 0.0


@pytest.mark.parametrize("kappa,kind,steps,L", CASES)
def test_interp_rows_evaluate_to_triplet_slacks(kappa, kind, steps, L):
    # <A_ab, P^T P> + f_a - f_b is the slack of the triplets x = P c_x, g = P c_g
    # in the unit-scale class
    p = make(kappa, steps, kind=kind, L=L)
    unit = CurvatureClass(mu=p.cls.kappa, L=1.0)
    sdp = build_sdp(p)
    pts = gram_points(p)
    rng = np.random.default_rng(0)
    for _ in range(3):
        P = rng.standard_normal((p.gram_dim, p.gram_dim))
        values = {v: rng.standard_normal() for v in sdp.var_names}
        X = np.array([P @ x for _, x in pts.values()])
        G = np.array([P @ g for g, _ in pts.values()])
        f = np.array([values.get(f"f_{name}", 0.0) for name in pts])
        S = slack_matrix(X, G, f, unit)
        index = {name: i for i, name in enumerate(pts)}
        gram = P.T @ P
        c = sdp.constraints
        y = np.array([values[v] for v in sdp.var_names])
        for a, b, r in interp_rows(sdp):
            row = c.B[r] @ np.concatenate([svec(gram), y]) + c.const[r]
            slack = S[index[a], index[b]]
            assert abs(row - slack) <= 1e-12 * max(1.0, abs(slack))


def reference_rows(p, sdp):
    """Per-row (A, lin, const) at unit scale from each row's label, with the
    pairwise inequality from ``reference_interp_matrix`` and the points from
    ``gram_points``."""
    pts = gram_points(p)
    N, n = p.sched.n, p.gram_dim
    for label in sdp.constraints.labels:
        kind, _, arg = label.partition("[")
        arg = arg.rstrip("]")
        if kind == "interp":
            a, b = arg.split(",")
            A = reference_interp_matrix(pts[a], pts[b], p.cls)
            lin, const = {f"f_{a}": 1.0, f"f_{b}": -1.0}, 0.0
        elif kind == "descent":
            g = pts[arg][0]
            A, lin, const = -np.outer(g, g) / 2.0, {f"f_{arg}": 1.0}, 0.0
        elif kind == "initial":
            A, lin, const = np.zeros((n, n)), {"f_0": -1.0}, 1.0
        else:
            g = pts[arg][0]
            A, lin, const = np.outer(g, g), {"l": -1.0}, 0.0
        yield A, [lin.get(v, 0.0) for v in sdp.var_names], const


@pytest.mark.parametrize("kappa,kind,steps,L", CASES)
def test_problem_arrays_match_per_row_reference(kappa, kind, steps, L):
    p = make(kappa, steps, kind=kind, L=L, delta=2.5)
    sdp = build_sdp(p)
    N = p.sched.n
    pts = list(gram_points(p))
    labels = [f"interp[{a},{b}]" for a in pts for b in pts if a != b]
    if kind == NumeratorKind.gap_to_optimal:
        labels += [f"descent[{i}]" for i in range(N + 1)]
    labels += ["initial"] + [f"epigraph[{i}]" for i in range(N + 1)]
    assert list(sdp.constraints.labels) == labels
    assert len(sdp.constraints) == len(labels)

    B, d, cvec = sdp.constraints.B, sdp.constraints.const, _cost(sdp)
    ref = list(reference_rows(p, sdp))
    B_ref = np.array([np.concatenate([svec(A), lin]) for A, lin, _ in ref])
    assert B.shape == B_ref.shape
    if kappa in (0.0, -1.0):  # t and 1 - t are powers of two
        assert np.array_equal(B, B_ref)
    else:
        assert np.abs(B - B_ref).max() <= 1e-15 * np.abs(B_ref).max()
    assert np.array_equal(d, [const for _, _, const in ref])
    assert sdp.var_names[-1] == "l"
    assert np.array_equal(cvec, np.r_[np.zeros(len(cvec) - 1), -1.0])  # maximize l


def recursion_triplets(p, sol):
    """Triplets from the factor of the unit Gram matrix, with x_0 and the
    gradients in user units, and the step recursion x_{i+1} = x_i - (h_i / L) g_i."""
    G = sol.gram
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    w = np.clip(w, 0.0, None)
    keep = w > 1e-7 * max(w.max(), 1.0)
    P = np.sqrt(w[keep])[:, None] * V[:, keep].T
    N, L, delta = p.sched.n, p.cls.L, p.delta
    opt = p.init_kind == NumeratorKind.gap_to_optimal
    xs = [np.sqrt(delta / L) * P[:, N + 1] if opt else np.zeros(len(P))]
    gs = [np.sqrt(L * delta) * P[:, i] for i in range(N + 1)]
    for i in range(N):
        xs.append(xs[-1] - (p.sched.steps[i] / L) * gs[i])
    fs = [delta * sol.linear_values.get(f"f_{i}", 0.0) for i in range(N + 1)]
    if opt:
        xs, gs, fs = xs + [np.zeros(len(P))], gs + [np.zeros(len(P))], fs + [0.0]
    return xs, gs, fs


@pytest.mark.parametrize("kappa,kind,steps,L", [c for c in CASES if max(c[2]) <= 1.5])
def test_extract_triplets_match_step_recursion(kappa, kind, steps, L):
    p = make(kappa, steps, kind=kind, L=L)
    sol = solve_pep(p)
    ts = extract_triplets(p, sol)
    xs, gs, fs = recursion_triplets(p, sol)
    assert len(ts) == len(xs)
    scale = max(np.abs(x).max() for x in xs)
    if L == 1.0:  # the unit-scale map is the identity: the same factor
        for t, x, g, f in zip(ts, xs, gs, fs):
            assert t.g.tobytes() == g.tobytes()
            assert t.f == f
            assert np.abs(t.x - x).max() <= 1e-15 * scale
    else:  # the same unit factor, mapped to user units with other roundings
        assert [t.f for t in ts] == fs
        V = np.array([t.x for t in ts] + [t.g for t in ts])
        V_ref = np.array(xs + gs)
        ref = V_ref @ V_ref.T
        assert np.abs(V @ V.T - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solve_pep_returns_verified_optimum():
    p = make(-1.0, [1.0, 0.5])  # at L = delta = 1 the solver's solution itself
    sol = solve_pep(p)
    assert sol.status == SolveStatus.Optimal
    assert sol.objective == solve(build_sdp(p)).objective


def test_solve_pep_raises_on_max_iter(monkeypatch):
    def stalled(sdp):
        return dataclasses.replace(sdpsolver.solve(sdp), status=SolveStatus.MaxIter)

    monkeypatch.setattr(pep, "solve", stalled)
    with pytest.raises(SolverFailure, match="^solver status MaxIter$"):
        solve_pep(make(-1.0, [1.0]))


def test_solve_pep_raises_on_failed_verification(monkeypatch):
    def failing(sdp, sol):
        return VerificationReport(False, 0.0, 0.0, 0.0, 1.0, ["duality gap 1.0", "injected"])

    monkeypatch.setattr(pep, "verify_solution", failing)
    with pytest.raises(SolverFailure, match="^verification failed: duality gap 1.0; injected$"):
        solve_pep(make(-1.0, [1.0]))


def test_build_sdp_rejects_gram_dim_above_cap(monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows assembled before the size check")

    monkeypatch.setattr(pep, "interpolation_slack", no_rows)
    with pytest.raises(ProblemTooLarge, match="got 65"):
        build_sdp(make(-1.0, [1.0] * 63))
