"""Dense primal-dual interior-point solver for the small SDPs built by the
pep module.

The problem ``maximize l s.t. <A_c, G> + lin_c . y + d_c >= 0, G >= 0`` is
cast as a conic program over one nonnegative-orthant block (the inequality
slacks) and one PSD block (G itself), with the scalar variables y free.
Search directions use Nesterov-Todd scaling with a Mehrotra
predictor-corrector; the Newton system is reduced to a dense positive
definite system in the primal variables u = (svec(G), y).

The reduced (Schur) matrix is assembled in closed form. With the row
matrix B of the constraints, orthant slacks s_l and duals z_l, and the NT
scaling point W of the PSD block, it is

    M = B^T diag(z_l / s_l) B + [[W^-1 (x) W^-1, 0], [0, 0]]

where W^-1 (x) W^-1 is the symmetric Kronecker product in svec
coordinates (Todd, Toh & Tutuncu 1998), filled in one indexing pass over
the upper triangle: entry ((i,j),(k,l)) is
s_ij s_kl (V_ik V_jl + V_il V_jk) / 2 with V = W^-1 and s = sqrt(2) off
the diagonal, 1 on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import ValidationError
from .pep import SdpProblem

_SQRT2 = np.sqrt(2.0)

MAX_GRAM_DIM = 64


class ProblemTooLarge(ValidationError):
    """The Gram dimension exceeds what the dense solver accepts."""


def check_gram_dim(n: int) -> None:
    if n > MAX_GRAM_DIM:
        raise ProblemTooLarge(f"dense solver limited to gram_dim <= {MAX_GRAM_DIM}, got {n}")


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle rows, columns and svec scale (sqrt(2) off the diagonal)."""
    rows, cols = np.triu_indices(n)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    for a in (rows, cols, scale):
        a.flags.writeable = False
    return rows, cols, scale


def svec(S: np.ndarray) -> np.ndarray:
    """Scaled vectorization of a symmetric matrix: svec(X).svec(Y) = <X, Y>."""
    rows, cols, scale = _triu(S.shape[0])
    return S[rows, cols] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    rows, cols, scale = _triu(n)
    S = np.zeros((n, n))
    vs = v / scale
    S[rows, cols] = vs
    S[cols, rows] = vs
    return S


def skron(V: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product V (x) V in svec coordinates.

    ``skron(V) @ svec(X) == svec(V @ X @ V)`` for symmetric V and X.
    """
    rows, cols, scale = _triu(V.shape[0])
    Vr, Vc = V[rows], V[cols]
    K = Vr[:, rows] * Vc[:, cols] + Vr[:, cols] * Vc[:, rows]
    K *= 0.5 * np.outer(scale, scale)
    return K


def _psd_sqrt(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(S)
    w = np.clip(w, 1e-300, None)
    sq = np.sqrt(w)
    return (V * sq) @ V.T, (V / sq) @ V.T


def _nt_scaling_psd(S: np.ndarray, Z: np.ndarray):
    """NT scaling point W with W Z W = S; returns (W^1/2, W^-1/2, W^-1, lam)."""
    S_h, _ = _psd_sqrt(S)
    _, inner_isqrt = _psd_sqrt(S_h @ Z @ S_h)
    W = S_h @ inner_isqrt @ S_h
    W = 0.5 * (W + W.T)
    R, Rinv = _psd_sqrt(W)
    Winv = Rinv @ Rinv
    lam = Rinv @ S @ Rinv
    lam = 0.5 * (lam + lam.T)
    return R, Rinv, Winv, lam


def _lyap_inv(lam: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve lam o X = D for the symmetric Jordan product."""
    theta, Q = np.linalg.eigh(lam)
    Dp = Q.T @ D @ Q
    X = 2.0 * Dp / (theta[:, None] + theta[None, :])
    return Q @ X @ Q.T


class SolveStatus(str, Enum):
    Optimal = "Optimal"
    MaxIter = "MaxIter"


@dataclass
class SdpSolution:
    objective: float
    gram: np.ndarray
    linear_values: dict[str, float]
    duals: np.ndarray
    status: SolveStatus
    kkt_residuals: dict[str, float]
    iterations: int = 0


@dataclass
class SolveOptions:
    tol: float = 1e-9
    max_iter: int = 200


class _ConeOps:
    """Blockwise cone operations for one orthant block and one PSD block."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.sd = n * (n + 1) // 2

    def split(self, v):
        return v[: self.m], smat(v[self.m :], self.n)

    def join(self, vl, Vp):
        return np.concatenate([vl, svec(Vp)])

    def identity(self, rho: float):
        return self.join(np.full(self.m, rho), rho * np.eye(self.n))

    def max_step(self, v, dv) -> float:
        vl, Vp = self.split(v)
        dl, Dp = self.split(dv)
        alpha = np.inf
        neg = dl < 0
        if neg.any():
            alpha = float((-vl[neg] / dl[neg]).min())
        Lc = np.linalg.cholesky(Vp)
        M = np.linalg.solve(Lc, np.linalg.solve(Lc, Dp).T)
        lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
        if lam_min < 0:
            alpha = min(alpha, -1.0 / lam_min)
        return alpha


def _problem_arrays(problem: SdpProblem):
    n = problem.gram_dim
    m = len(problem.constraints)
    sd = n * (n + 1) // 2
    k = len(problem.var_names)
    nv = sd + k
    var_index = {v: sd + i for i, v in enumerate(problem.var_names)}
    rows, cols, scale = _triu(n)

    A = np.array([c.A for c in problem.constraints], dtype=float).reshape(m, n, n)
    B = np.zeros((m, nv))
    B[:, :sd] = 0.5 * (A[:, rows, cols] + A[:, cols, rows]) * scale
    for ci, c in enumerate(problem.constraints):
        for vname, coef in c.lin.items():
            B[ci, var_index[vname]] = coef
    d = np.array([c.const for c in problem.constraints], dtype=float)

    # minimize cvec.u == maximize the objective variable
    cvec = np.zeros(nv)
    cvec[var_index[problem.objective_var]] = -1.0

    # Gmat u + s = h with s = (linear slacks, svec(G)), Gmat = [-B; -[I 0]]
    Gmat = np.zeros((m + sd, nv))
    Gmat[:m] = -B
    Gmat[m:, :sd] = -np.eye(sd)
    h = np.concatenate([d, np.zeros(sd)])
    return B, Gmat, h, cvec, var_index


def schur_matrix(B: np.ndarray, zs: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Gmat^T W^-2 Gmat for Gmat = [-B; -[I 0]]: B^T diag(zs) B plus K on the PSD block.

    ``zs`` is z_l / s_l on the orthant block and ``K = skron(W^-1)``.
    """
    C = np.sqrt(zs)[:, None] * B
    M = C.T @ C  # one symmetric rank-k update
    sd = K.shape[0]
    M[:sd, :sd] += K
    return M


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve the SDP to KKT residuals below ``opts.tol`` or report status."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve_inner(problem, opts or SolveOptions())


def _solve_inner(problem: SdpProblem, opts: SolveOptions) -> SdpSolution:
    n = problem.gram_dim
    check_gram_dim(n)
    m = len(problem.constraints)
    cone = _ConeOps(m, n)
    B, Gmat, h, cvec, var_index = _problem_arrays(problem)
    nv = Gmat.shape[1]
    sd = cone.sd

    rho = max(1.0, float(np.abs(h).max()))
    u = np.zeros(nv)
    u[:sd] = svec(rho * np.eye(n))
    s = cone.identity(rho)
    z = cone.identity(1.0)

    h_norm = 1.0 + float(np.linalg.norm(h))
    c_norm = 1.0 + float(np.linalg.norm(cvec))
    deg = m + n
    best = None

    def residuals(u, s, z):
        r_p = h - Gmat @ u - s
        r_d = -cvec - Gmat.T @ z
        gap = float(s @ z)
        pobj = float(cvec @ u)
        dobj = -float(h @ z)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        return r_p, r_d, gap, rel_gap, pobj, dobj

    status = SolveStatus.MaxIter
    it = 0
    best_it = 0
    for it in range(1, opts.max_iter + 1):
        r_p, r_d, gap, rel_gap, pobj, dobj = residuals(u, s, z)
        pres = float(np.linalg.norm(r_p)) / h_norm
        dres = float(np.linalg.norm(r_d)) / c_norm
        score = max(pres, dres, rel_gap)
        if best is None or score < best[0]:
            best = (score, u.copy(), s.copy(), z.copy(), pres, dres, rel_gap)
            best_it = it
        if pres <= opts.tol and dres <= opts.tol and rel_gap <= opts.tol:
            status = SolveStatus.Optimal
            break
        if it - best_it > 15:
            break

        if not (np.isfinite(s).all() and np.isfinite(z).all() and np.isfinite(u).all()):
            break
        mu = gap / deg
        sl, Sp = cone.split(s)
        zl, Zp = cone.split(z)
        try:
            R, Rinv, Winv, lam = _nt_scaling_psd(Sp, Zp)
        except np.linalg.LinAlgError:
            break

        zs = zl / sl
        K = skron(Winv)

        def winv2(v):
            return np.concatenate([v[:m] * zs, K @ v[m:]])

        M = schur_matrix(B, zs, K)
        M += 1e-14 * np.trace(M) / nv * np.eye(nv)
        try:
            np.linalg.cholesky(M)  # positive-definiteness guard
        except np.linalg.LinAlgError:
            break

        def direction(q):
            rhs = r_d - Gmat.T @ q + Gmat.T @ winv2(r_p)
            du = np.linalg.solve(M, rhs)
            ds = r_p - Gmat @ du
            dz = q - winv2(ds)
            return du, ds, dz

        # predictor (affine) direction: q = -z
        try:
            du_a, ds_a, dz_a = direction(-z)
            a_p = cone.max_step(s, ds_a)
            a_d = cone.max_step(z, dz_a)
        except np.linalg.LinAlgError:
            break
        alpha_aff = min(1.0, 0.999 * min(a_p, a_d))
        gap_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a))
        sigma = min(max((gap_aff / gap) ** 3, 1e-10), 0.99)

        # corrector with Mehrotra second-order terms
        dsl_a, DSp_a = cone.split(ds_a)
        dzl_a, DZp_a = cone.split(dz_a)
        ql = (sigma * mu - dsl_a * dzl_a) / sl - zl
        Sa = Rinv @ DSp_a @ Rinv
        Za = R @ DZp_a @ R
        D = sigma * mu * np.eye(n) - 0.5 * (Sa @ Za + Za @ Sa)
        Qp = Rinv @ _lyap_inv(lam, 0.5 * (D + D.T)) @ Rinv - Zp
        try:
            du, ds, dz = direction(cone.join(ql, Qp))
            a_p = cone.max_step(s, ds)
            a_d = cone.max_step(z, dz)
        except np.linalg.LinAlgError:
            break
        alpha = min(1.0, 0.99 * min(a_p, a_d))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break
        u = u + alpha * du
        s = s + alpha * ds
        z = z + alpha * dz

    _, u, s, z, pres, dres, rel_gap = best
    if status != SolveStatus.Optimal and max(pres, dres, rel_gap) <= 100 * opts.tol:
        status = SolveStatus.Optimal

    G = smat(u[:sd], n)
    linear_values = {v: float(u[idx]) for v, idx in var_index.items()}
    return SdpSolution(
        objective=linear_values[problem.objective_var],
        gram=0.5 * (G + G.T),
        linear_values=linear_values,
        duals=z[:m].copy(),
        status=status,
        kkt_residuals={"primal": pres, "dual": dres, "gap": rel_gap},
        iterations=it,
    )


@dataclass
class VerificationReport:
    all_pass: bool
    min_slack: float
    min_gram_eigenvalue: float
    complementarity: float
    duality_gap: float
    failures: list[str] = field(default_factory=list)


def verify_solution(
    problem: SdpProblem, solution: SdpSolution, tol: float = 1e-6
) -> VerificationReport:
    """Independent recheck of a solution: slacks, PSD-ness, complementarity."""
    failures = []
    G = solution.gram
    vals = solution.linear_values
    slacks = []
    for c in problem.constraints:
        slack = float(np.sum(c.A * G)) + sum(vals[v] * coef for v, coef in c.lin.items()) + c.const
        slacks.append(slack)
    slacks = np.array(slacks)
    min_slack = float(slacks.min())
    if min_slack < -tol:
        failures.append(f"constraint slack {min_slack} below -{tol}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (G + G.T)).min())
    if min_eig < -tol:
        failures.append(f"gram eigenvalue {min_eig} below -{tol}")
    comp = float(np.abs(slacks * solution.duals).max()) if len(slacks) else 0.0
    dobj = float(sum(c.const * zc for c, zc in zip(problem.constraints, solution.duals)))
    gap = abs(solution.objective - dobj)
    if comp > 100 * tol * (1.0 + abs(solution.objective)):
        failures.append(f"complementarity residual {comp}")
    return VerificationReport(
        all_pass=not failures,
        min_slack=min_slack,
        min_gram_eigenvalue=min_eig,
        complementarity=comp,
        duality_gap=gap,
        failures=failures,
    )
