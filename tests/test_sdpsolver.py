import dataclasses
import warnings

import numpy as np
import pytest

from hypopep import cli, sdpsolver
from hypopep.core import NumeratorKind, StepSchedule, validate_class
from hypopep.pep import PepProblem, SolverFailure, build_sdp, solve_pep
from hypopep.rates import nstep_bound
from hypopep.sdpsolver import (
    _TRIL_LEAF,
    TOL,
    SdpProblem,
    SdpRows,
    SdpSolution,
    _nt_scaling_psd,
    _orthant_step,
    _psd_step,
    _tril_inv,
    SolveStatus,
    schur_matrix,
    skron,
    smat,
    solve,
    svec,
    verify_solution,
)


def trivial_problem(scale=1.0):
    # maximize l subject to G_00 >= l and G_00 <= 1 (optimum l = 1); the
    # rows are over u = (svec(G), l) = (G_00, l)
    return SdpProblem(
        gram_dim=1,
        var_names=("l",),
        constraints=SdpRows(
            B=np.array([[scale, -scale], [-scale, 0.0]]),
            const=np.array([0.0, scale]),
            labels=("epi", "cap"),
        ),
    )


def test_svec_roundtrip_and_inner_product():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        X = rng.standard_normal((n, n))
        X = X + X.T
        Y = rng.standard_normal((n, n))
        Y = Y + Y.T
        assert np.allclose(smat(svec(X), n), X)
        assert abs(svec(X) @ svec(Y) - np.sum(X * Y)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 22])
def test_smat_is_symmetric_and_inverts_svec(n):
    # smat's gather reads each upper-triangle entry of v into both halves
    rng = np.random.default_rng([n, 3])
    for _ in range(3):
        v = rng.standard_normal(n * (n + 1) // 2) * 10.0 ** rng.uniform(-8, 8)
        S = smat(v, n)
        assert S.flags.c_contiguous and np.array_equal(S, S.T)
        assert np.allclose(svec(S), v, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_schur_matrix_matches_column_by_column_reference(n):
    rng = np.random.default_rng(n)
    sd = n * (n + 1) // 2
    m, k = 3 * sd + 2, 4
    nv = sd + k
    B = rng.standard_normal((m, nv))
    sl = rng.uniform(0.1, 2.0, m)
    zl = rng.uniform(0.1, 2.0, m)
    X = rng.standard_normal((n, n))
    Winv = X @ X.T + 0.5 * np.eye(n)

    Gmat = np.zeros((m + sd, nv))
    Gmat[:m] = -B
    Gmat[m:, :sd] = -np.eye(sd)

    def winv2(v):
        return np.concatenate([v[:m] * (zl / sl), svec(Winv @ smat(v[m:], n) @ Winv)])

    T = np.column_stack([winv2(Gmat[:, j]) for j in range(nv)])
    M_ref = Gmat.T @ T
    M = schur_matrix(B, zl / sl, skron(Winv))
    assert np.linalg.norm(M - M_ref) <= 1e-12 * np.linalg.norm(M_ref)


def _skron_reference(V):
    """The symmetric Kronecker product as one expression with temporaries."""
    rows, cols = np.triu_indices(V.shape[0])
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    Vr, Vc = V[rows], V[cols]
    K = Vr[:, rows] * Vc[:, cols] + Vr[:, cols] * Vc[:, rows]
    K *= 0.5 * np.outer(scale, scale)
    return K


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 22])
def test_skron_in_place_is_bitwise_reference(n):
    rng = np.random.default_rng([n, 7])
    for _ in range(5):
        X = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8)
        V = X @ X.T
        assert np.array_equal(skron(V), _skron_reference(V))


def _random_pd(rng, n, cond):
    """Random symmetric positive definite matrix with condition number ``cond``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.permutation(np.logspace(0.0, -np.log10(cond), n))
    return (Q * w) @ Q.T


def _cholesky_step(V, D):
    """Reference step length: the largest alpha with V + alpha D PSD, from
    chol(V) = L and the eigenvalues of L^-1 D L^-T."""
    L = np.linalg.cholesky(V)
    M = np.linalg.solve(L, np.linalg.solve(L, D).T)
    e = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
    return -1.0 / e if e < 0 else np.inf


COND = [1.0, 1e5, 1e10]
EPS = np.finfo(float).eps


def norm2(A):
    return np.linalg.norm(A, 2)


def _pep_h1(N):
    """The PEP of the ROADMAP table: kappa = -1, N steps h = 1, gap to optimal."""
    cls, sched = validate_class(-1.0, 1.0), StepSchedule.constant(1.0, N)
    return PepProblem(cls, sched, 1.0, NumeratorKind.gap_to_optimal)


@pytest.mark.parametrize("n", [1, _TRIL_LEAF, _TRIL_LEAF + 1, 2 * _TRIL_LEAF + 1, 300])
@pytest.mark.parametrize("cond", COND + [1e14])
def test_tril_inv_matches_inverse(n, cond):
    # L is the Cholesky factor of an M with condition number cond, as in solve
    rng = np.random.default_rng([n, int(np.log10(cond))])
    L = np.linalg.cholesky(_random_pd(rng, n, cond))
    Li = _tril_inv(L)
    ref = np.linalg.inv(L)
    assert np.linalg.norm(Li - ref) <= n * EPS * np.linalg.cond(L) * np.linalg.norm(ref)
    assert not np.triu(Li, 1).any()


def _pep_schur_matrices(N):
    """Every Newton matrix M, diagonal shift included, of one PEP solve, copied
    as it is factored; solve refills one buffer, and the NT scaling factors
    S and Z as one 3-D stack."""
    cholesky = np.linalg.cholesky
    recorded = []

    def recording(a):
        if a.ndim == 2:
            recorded.append(a.copy())
        return cholesky(a)

    prob = build_sdp(_pep_h1(N))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", recording)
        assert solve(prob).status == SolveStatus.Optimal
    return recorded


def test_newton_solve_from_factor_matches_lu_solve():
    # the Newton matrices of the N=20 PEP reach condition numbers near 1e16
    Ms = _pep_schur_matrices(20)
    assert Ms[0].shape == (275, 275)
    rng = np.random.default_rng(20)
    for M in Ms:
        rhs = rng.standard_normal(M.shape[0])
        Li = _tril_inv(np.linalg.cholesky(M))
        ref = np.linalg.solve(M, rhs)
        assert np.linalg.norm((Li @ rhs) @ Li - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("cond_s", COND)
@pytest.mark.parametrize("cond_z", COND)
def test_nt_scaling_identities(n, cond_s, cond_z):
    rng = np.random.default_rng([n, int(np.log10(cond_s)), int(np.log10(cond_z))])
    tol = 1e4 * EPS  # relative to the norms of the factors of each product
    for _ in range(4):
        S = _random_pd(rng, n, cond_s)
        Z = _random_pd(rng, n, cond_z) * 10.0 ** rng.uniform(-3, 3)
        G, Ginv, Winv, lam = _nt_scaling_psd(np.stack([S, Z]))
        W = G @ G.T
        assert np.all(lam > 0)
        assert np.linalg.norm(W @ Z @ W - S) <= tol * norm2(W) ** 2 * norm2(Z)
        assert np.linalg.norm(Ginv @ S @ Ginv.T - np.diag(lam)) <= tol * norm2(Winv) * norm2(S)
        assert np.linalg.norm(G.T @ Z @ G - np.diag(lam)) <= tol * norm2(W) * norm2(Z)
        assert np.linalg.norm(Ginv @ G - np.eye(n)) <= tol * norm2(G) * norm2(Ginv)
        assert np.linalg.norm(Winv @ W - np.eye(n)) <= tol * norm2(Winv) * norm2(W)


def test_nt_scaling_rejects_indefinite():
    S = np.diag([1.0, -1e-3])
    with pytest.raises(np.linalg.LinAlgError):
        _nt_scaling_psd(np.stack([S, np.eye(2)]))
    with pytest.raises(np.linalg.LinAlgError):
        _nt_scaling_psd(np.stack([np.eye(2), S]))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("cond", COND)
def test_psd_step_matches_cholesky_reference(n, cond):
    rng = np.random.default_rng([n, int(np.log10(cond))])
    for _ in range(4):
        S = _random_pd(rng, n, cond)
        Z = _random_pd(rng, n, cond)
        G, Ginv, _, lam = _nt_scaling_psd(np.stack([S, Z]))
        X = rng.standard_normal((n, n))
        dS, dZ = X + X.T, X @ X.T - 0.5 * np.trace(X @ X.T) * np.eye(n)
        Sa, Za = Ginv @ dS @ Ginv.T, G.T @ dZ @ G
        a_s, a_z = _psd_step(lam, Sa), _psd_step(lam, Za)
        assert a_s == pytest.approx(_cholesky_step(S, dS), rel=1e-9)
        assert a_z == pytest.approx(_cholesky_step(Z, dZ), rel=1e-9)
        assert _psd_step(lam, np.stack([Sa, Za])) == min(a_s, a_z)
        # a PSD direction never leaves the cone: no eigenvalue binds
        assert _psd_step(lam, Ginv @ (X @ X.T) @ Ginv.T) == np.inf == _cholesky_step(S, X @ X.T)
        # S - alpha S is PSD up to alpha = 1, to the accuracy cond(S) allows
        assert abs(_psd_step(lam, -Ginv @ S @ Ginv.T) - 1.0) <= 1e3 * EPS * cond


@pytest.mark.parametrize("N, iterations", [(1, 9), (8, 11), (12, 14), (16, 15), (20, 17)])
def test_roadmap_iteration_table(N, iterations):
    cls = validate_class(-1.0, 1.0)
    prob = build_sdp(
        PepProblem(cls, StepSchedule.constant(1.0, N), 1.0, NumeratorKind.gap_to_optimal)
    )
    sol = solve(prob)
    assert sol.status == SolveStatus.Optimal
    assert sol.iterations == iterations


def test_newton_matrix_factored_once_per_iteration(monkeypatch):
    cholesky = np.linalg.cholesky
    factored = []

    def counting(a):
        if a.ndim == 2:
            factored.append(a.shape)
        return cholesky(a)

    def no_lu_solve(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    monkeypatch.setattr(np.linalg, "solve", no_lu_solve)
    sol = solve(build_sdp(_pep_h1(8)))
    assert sol.status == SolveStatus.Optimal
    # the last iteration stops on its residuals before it factors
    assert factored == [(65, 65)] * (sol.iterations - 1)


@pytest.fixture
def indefinite_schur(monkeypatch):
    """Newton matrices with a negative diagonal entry: the Cholesky guard fails."""

    def indefinite(*args, **kwargs):
        M = schur_matrix(*args, **kwargs)
        M[0, 0] = -1.0
        return M

    monkeypatch.setattr(sdpsolver, "schur_matrix", indefinite)


def test_failed_guard_ends_solve_with_max_iter(indefinite_schur):
    sol = solve(trivial_problem())
    assert sol.status == SolveStatus.MaxIter
    assert sol.iterations == 1


def test_failed_guard_raises_solver_failure(indefinite_schur):
    with pytest.raises(SolverFailure, match="^solver status MaxIter$"):
        solve_pep(_pep_h1(2))


def test_failed_guard_cli_exit_code(indefinite_schur, capsys):
    assert cli.main(["pep", "--kappa", "-1", "--steps", "1,1"]) == 3
    out = capsys.readouterr()
    assert "optimum" not in out.out
    assert out.err.strip() == "error: SolverFailure: solver status MaxIter"


def test_pep_n30_matches_rate():
    # nv = 560: five levels of the triangular-inverse recursion, one more than at N=20
    p = _pep_h1(30)
    prob = build_sdp(p)
    sol = solve(prob)
    assert sol.status == SolveStatus.Optimal
    assert verify_solution(prob, sol).all_pass
    rate = nstep_bound(p.cls, p.sched, p.delta, p.init_kind).bound
    assert abs(sol.objective - rate) <= 1e-8 * rate


def test_trivial_problem_solves_to_one():
    sol = solve(trivial_problem())
    assert sol.status == SolveStatus.Optimal
    assert abs(sol.objective - 1.0) < 1e-7
    assert abs(sol.gram[0, 0] - 1.0) < 1e-6


def test_constraint_scale_invariance():
    # multiplying every row by 1000 leaves the feasible set unchanged
    a = solve(trivial_problem(1.0)).objective
    b = solve(trivial_problem(1000.0)).objective
    assert abs(a - b) < 1e-6


def test_duality_gap_within_tolerance():
    cls = validate_class(-1.0, 1.0)
    prob = build_sdp(
        PepProblem(cls, StepSchedule.constant(1.0, 2), 1.0, NumeratorKind.gap_to_optimal)
    )
    assert TOL == 1e-9
    sol = solve(prob)
    assert sol.status == SolveStatus.Optimal
    assert sol.kkt_residuals["gap"] <= 10 * TOL
    report = verify_solution(prob, sol)
    assert report.all_pass
    assert report.duality_gap < 1e-6


def test_determinism_bitwise():
    cls = validate_class(-0.5, 1.0)
    prob = build_sdp(
        PepProblem(cls, StepSchedule.constant(0.7, 3), 1.0, NumeratorKind.gap_to_last)
    )
    s1 = solve(prob)
    s2 = solve(prob)
    assert s1.objective == s2.objective
    assert np.array_equal(s1.gram, s2.gram)
    assert np.array_equal(s1.duals, s2.duals)


def test_solve_is_a_function_of_its_problem_alone():
    # P1, then P2, then P1 again: nothing of one solve reaches the next,
    # and the solve reads its rows without writing them
    def problem(kappa, h, N, kind):
        return build_sdp(PepProblem(validate_class(kappa, 1.0), StepSchedule.constant(h, N), 1.0, kind))

    p1 = problem(-1.0, 1.5, 3, NumeratorKind.gap_to_optimal)
    p2 = problem(-2.0, 0.4, 6, NumeratorKind.gap_to_last)
    B_bytes, const_bytes = p1.constraints.B.tobytes(), p1.constraints.const.tobytes()
    first = solve(p1)
    assert p1.constraints.B.tobytes() == B_bytes and p1.constraints.const.tobytes() == const_bytes
    fields = dataclasses.asdict(first)
    first.gram.fill(np.nan)
    first.duals.fill(np.nan)
    solve(p2)
    again = solve(p1)
    assert p1.constraints.B.tobytes() == B_bytes and p1.constraints.const.tobytes() == const_bytes
    for name, value in dataclasses.asdict(again).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == fields[name].tobytes(), name
        else:
            assert value == fields[name], name


def test_orthant_step_skips_zero_directions():
    v = np.array([1.0, 2.0, 0.5, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # entries 1 and 4 do not move, 3 grows: only 0 and 2 bind
        assert _orthant_step(v, np.array([-2.0, 0.0, -0.25, 1.0, -0.0])) == min(1.0 / 2.0, 0.5 / 0.25)
        assert _orthant_step(v, np.array([0.0, 1.0, 0.0, 2.0, -0.0])) == np.inf
        assert _orthant_step(np.zeros(0), np.zeros(0)) == np.inf


def test_delta_scaling_scales_optimum():
    cls = validate_class(-1.0, 1.0)
    sched = StepSchedule.constant(1.0, 1)
    base = solve_pep(PepProblem(cls, sched, 1.0, NumeratorKind.gap_to_optimal))
    scaled = solve_pep(PepProblem(cls, sched, 1000.0, NumeratorKind.gap_to_optimal))
    assert scaled.objective == 1.0 * 1000.0 * base.objective


def test_verify_solution_negative_control():
    prob = trivial_problem()
    sol = solve(prob)
    tampered = SdpSolution(
        objective=sol.objective + 1.0,
        gram=sol.gram - 2.0,
        linear_values={"l": sol.objective + 1.0},
        duals=sol.duals,
        status=sol.status,
        kkt_residuals=sol.kkt_residuals,
        iterations=sol.iterations,
    )
    report = verify_solution(prob, tampered)
    assert not report.all_pass
    assert report.failures


def test_verify_solution_fails_on_duality_gap_alone():
    prob = trivial_problem()
    sol = solve(prob)
    assert verify_solution(prob, sol).all_pass
    # the dual objective no longer matches the objective variable l: the
    # multiplier of the cap row, whose slack is 0, moves; slacks, the Gram
    # matrix and l are untouched
    duals = sol.duals.copy()
    duals[1] += 1e-3
    tampered = dataclasses.replace(sol, duals=duals)
    report = verify_solution(prob, tampered)
    assert not report.all_pass
    assert len(report.failures) == 1
    assert report.failures[0].startswith("duality gap ")
    assert report.duality_gap > 100 * 1e-6 * (1.0 + abs(sol.linear_values["l"]))
    # the gap is taken at l, so a rescaled objective alone is no failure
    assert verify_solution(prob, dataclasses.replace(sol, objective=sol.objective + 1e-3)).all_pass


@pytest.mark.parametrize("L, delta", [(2.0, 2.0), (1e-8, 1e6)])
def test_verify_solution_accepts_a_user_unit_optimum(L, delta):
    # solve_pep returns objective = L delta l; the check reads l itself
    p = PepProblem(validate_class(-L, L), StepSchedule((1.0, 0.5)), delta, NumeratorKind.gap_to_optimal)
    sol = solve_pep(p)
    assert sol.objective == L * delta * sol.linear_values["l"]
    report = verify_solution(build_sdp(p), sol)
    assert report.all_pass, report.failures


@pytest.mark.parametrize("kind", list(NumeratorKind))
@pytest.mark.parametrize("h", [0.6, 1.0, 1.7])
def test_verify_solution_matches_per_row_loop(kind, h):
    # the stacked matrix-vector product against one row at a time, each row
    # a Python sum of its terms in svec coordinates; the summation order
    # differs, so the numbers agree to a few ulps of each row's magnitude
    prob = build_sdp(PepProblem(validate_class(-0.8, 1.0), StepSchedule.constant(h, 5), 1.0, kind))
    sol = solve(prob)
    rows = prob.constraints
    u = np.concatenate([svec(sol.gram), [sol.linear_values[v] for v in prob.var_names]])
    slacks, size = [], []
    for b, const in zip(rows.B, rows.const):
        terms = np.concatenate([b * u, [const]])
        slacks.append(sum(terms.tolist()))
        size.append(np.abs(terms).sum())
    slacks, tol = np.array(slacks), 64 * EPS * max(size)
    report = verify_solution(prob, sol)
    assert abs(report.min_slack - slacks.min()) <= tol
    assert abs(report.complementarity - np.abs(slacks * sol.duals).max()) <= tol * np.abs(sol.duals).max()
    dobj = sum(c * z for c, z in zip(rows.const, sol.duals))
    assert abs(report.duality_gap - abs(sol.objective - dobj)) <= 64 * EPS * abs(sol.objective)
    assert report.all_pass
