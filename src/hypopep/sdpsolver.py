"""Dense primal-dual interior-point solver for the small SDPs built by the
pep module.

The problem ``maximize l s.t. B_c . (svec(G), y) + d_c >= 0, G >= 0`` has
one nonnegative-orthant block (the row slacks) and one PSD block (G
itself), with the scalar variables y free. Search directions use
Nesterov-Todd scaling with a Mehrotra predictor-corrector; the Newton
system is reduced to a dense positive definite system in the primal
variables u = (svec(G), y).

This module defines the input format. An ``SdpProblem`` holds the Gram
dimension n, the names of the scalar variables y (the objective variable
``l`` among them) and one ``SdpRows``: the row matrix ``B``
(m x (n(n+1)/2 + len(y))) over u, with ``svec`` scaling on its svec(G)
columns, the offsets ``const`` (m) and one label per row. The rows are held
once, in the form the solver consumes: ``solve`` reads ``B`` without a copy.
``solve`` stops when the relative primal and dual residuals and the
relative gap are all below ``TOL``, or after ``MAX_ITER`` iterations;
``verify_solution`` rechecks a solution against the rows at ``VERIFY_TOL``.

The iterate is u, the m row slacks s = B u + d >= 0, their multipliers
z_l >= 0 and the dual matrix Z >= 0, held as one vector
w = (u, s, z_l, svec(Z)): the orthant block (s, z_l) is one slice. G is
held once, in u. In the loop the PSD block's point S = smat(u[:sd]) and Z,
and their directions, come from one gather through the cached n x n map
into svec that ``smat`` reads. Each floating-point operation, with its
operands and the memory layout of each matmul operand, is that of the form
with u, s, z_l and Z held apart, so the iterates are bit-for-bit the same.
With the cost c (minimizing c.u maximizes l) the KKT conditions read

    r_p = B u + d - s = 0,    r_d = B^T z_l + [svec(Z); 0] - c = 0,
    s o z_l = 0,              S Z = 0,

and the gap is s.z_l + svec(S).svec(Z). For the right side q = (q_l, svec(Q))
of the linearized complementarity, a Newton step solves
M du = r_d + B^T (q_l - (z_l / s) o r_p) + [svec(Q); 0], then sets
ds = r_p + B du, dz_l = q_l - (z_l / s) o ds and
svec(dZ) = svec(Q) - (W^-1 (x) W^-1) du[:sd].

Each iteration computes one NT frame of the PSD block (Todd, Toh &
Tutuncu 1998). From S = Ls Ls^T, Z = Lz Lz^T and the SVD
Lz^T Ls = U diag(lam) V^T, the factor G = Ls V lam^-1/2 gives the scaling
point W = G G^T (W Z W = S) and the scaled point
G^-1 S G^-T = G^T Z G = diag(lam), which is diagonal. In that frame:

- the step length of the PSD block is one symmetric eigenvalue problem,
  the smallest eigenvalue of (G^-1 dS G^-T) / sqrt(lam_i lam_j) (and of
  G^T dZ G likewise), with no further factorization;
- the Lyapunov equation of the Mehrotra corrector, diag(lam) o X = D,
  is solved entrywise: X_ij = 2 D_ij / (lam_i + lam_j).

A Cholesky failure of S or Z ends the iteration. The reduced (Schur)
matrix is assembled in closed form:

    M = B^T diag(z_l / s) B + [[W^-1 (x) W^-1, 0], [0, 0]]

where W^-1 (x) W^-1 is the symmetric Kronecker product in svec
coordinates, filled in one indexing pass over the upper triangle: entry
((i,j),(k,l)) is s_ij s_kl (V_ik V_jl + V_il V_jk) / 2 with V = W^-1 and
s = sqrt(2) off the diagonal, 1 on it.

M is factored once per iteration. Its Cholesky factor M = L L^T is the
positive-definiteness guard (a failure ends the iteration) and also the
factor of both Newton solves, the predictor's and the corrector's: with
Li = L^-1, formed by 2x2 block recursion, each solve is two
matrix-vector products, M^-1 r = Li^T (Li r). One Newton system is alive at
a time: M is one buffer, refilled in place every iteration, and an
iteration's Li, W^-1 (x) W^-1 and directions are released before the next
iteration assembles its own. Refilling M, rather than allocating a new
one, also spares each iteration the page faults of fresh memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import ValidationError

_SQRT2 = np.sqrt(2.0)

MAX_GRAM_DIM = 64
TOL = 1e-9  # KKT residuals and relative gap at which solve stops
MAX_ITER = 200
VERIFY_TOL = 1e-6  # slack and eigenvalue floor of verify_solution
OBJECTIVE = "l"  # the variable the SDP maximizes


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


@lru_cache(maxsize=None)
def _skron_weight(n: int) -> np.ndarray:
    """0.5 s_ij s_kl for every pair of upper-triangle entries (see ``skron``)."""
    scale = _triu(n)[2]
    w = 0.5 * np.outer(scale, scale)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _smat_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The svec position idx of every entry of an n x n matrix and the svec
    scale of that entry: smat(v, n) is v[idx] / scale."""
    rows, cols, scale = _triu(n)
    idx = np.empty((n, n), dtype=np.intp)
    idx[rows, cols] = idx[cols, rows] = np.arange(len(rows))
    scale = scale[idx]
    for a in (idx, scale):
        a.flags.writeable = False
    return idx, scale


def svec(S: np.ndarray) -> np.ndarray:
    """Scaled vectorization of a symmetric matrix: svec(X).svec(Y) = <X, Y>."""
    rows, cols, scale = _triu(S.shape[0])
    return S[rows, cols] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric matrix S with svec(S) = v."""
    idx, scale = _smat_index(n)
    return v[idx] / scale


def skron(V: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product V (x) V in svec coordinates.

    ``skron(V) @ svec(X) == svec(V @ X @ V)`` for symmetric V and X.
    """
    n = V.shape[0]
    rows, cols, _ = _triu(n)
    Vr, Vc = V[rows], V[cols]
    K = Vr[:, rows]
    K *= Vc[:, cols]
    T = Vr[:, cols]
    T *= Vc[:, rows]
    K += T
    K *= _skron_weight(n)
    return K


_TRIL_LEAF = 32  # largest block inverted by np.linalg.inv in _tril_inv


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion,

        [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]],

    with np.linalg.inv on the diagonal blocks of at most ``_TRIL_LEAF`` rows.
    Each leaf is inverted through its transpose: the LU factorization of an
    upper-triangular matrix needs no row exchange, so the strict upper
    triangle of the result is exactly zero.
    """
    Li = np.zeros(L.shape)

    def fill(L, Li):
        n = L.shape[0]
        if n <= _TRIL_LEAF:
            Li[...] = np.linalg.inv(L.T).T
            return
        k = n // 2
        fill(L[:k, :k], Li[:k, :k])
        fill(L[k:, k:], Li[k:, k:])
        T = L[k:, :k] @ Li[:k, :k]
        np.negative(T, out=T)
        np.matmul(Li[k:, k:], T, out=Li[k:, :k])

    fill(L, Li)
    return Li


def _nt_scaling_psd(SZ: np.ndarray):
    """NT scaling of the PSD block, S and Z stacked in SZ, from chol(S),
    chol(Z) and one SVD.

    With S = Ls Ls^T, Z = Lz Lz^T and Lz^T Ls = U diag(lam) V^T, the factor
    G = Ls V lam^-1/2 has G^-1 = lam^-1/2 U^T Lz^T, W = G G^T satisfies
    W Z W = S, and G^-1 S G^-T = G^T Z G = diag(lam). Returns
    (G, G^-1, W^-1, lam); raises LinAlgError unless S and Z are positive definite.
    """
    Ls, Lz = np.linalg.cholesky(SZ)
    U, lam, Vt = np.linalg.svd(Lz.T @ Ls)
    r = 1.0 / np.sqrt(lam)
    G = (Ls @ Vt.T) * r
    Ginv = r[:, None] * (U.T @ Lz.T)
    return G, Ginv, Ginv.T @ Ginv, lam


def _psd_step(lam: np.ndarray, D: np.ndarray) -> float:
    """Largest alpha with diag(lam) + alpha D PSD, or with every matrix of a
    stack D; inf when no eigenvalue binds."""
    r = 1.0 / np.sqrt(lam)
    e = float(np.linalg.eigvalsh(D * (r[:, None] * r)).min())
    return -1.0 / e if e < 0 else np.inf


def _orthant_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha dv >= 0; inf when no entry decreases.
    Only the decreasing entries are divided: a zero in dv is skipped."""
    neg = dv < 0
    return -float((v[neg] / dv[neg]).max(initial=-np.inf))


@dataclass(frozen=True)
class SdpRows:
    """Affine rows B[c] @ (svec(G), y) + const[c] >= 0, stacked.

    ``B`` is m x (n(n+1)/2 + len(var_names)), ``const`` has length m.
    """

    B: np.ndarray
    const: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SdpProblem:
    gram_dim: int
    var_names: tuple[str, ...]
    constraints: SdpRows


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


def _cost(problem: SdpProblem) -> np.ndarray:
    """Cost cvec over u = (svec(G), y): minimizing cvec.u maximizes the objective variable."""
    sd = problem.gram_dim * (problem.gram_dim + 1) // 2
    cvec = np.zeros(sd + len(problem.var_names))
    cvec[sd + problem.var_names.index(OBJECTIVE)] = -1.0
    return cvec


def schur_matrix(B: np.ndarray, zs: np.ndarray, K: np.ndarray, out=None) -> np.ndarray:
    """The Newton matrix B^T diag(zs) B plus K on the svec(G) block.

    ``zs`` is z_l / s, one entry per row of B, and ``K = skron(W^-1)``. The
    result is written into ``out`` when it is given.
    """
    C = np.sqrt(zs)[:, None] * B
    M = np.matmul(C.T, C, out=out)  # one symmetric rank-k update
    sd = K.shape[0]
    M[:sd, :sd] += K
    return M


@np.errstate(over="ignore", invalid="ignore")
def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the SDP to KKT residuals below ``TOL`` or report status."""
    n = problem.gram_dim
    check_gram_dim(n)
    m = len(problem.constraints)
    sd = n * (n + 1) // 2
    B, d, cvec = problem.constraints.B, problem.constraints.const, _cost(problem)
    nv = B.shape[1]

    # w = (u, s, z_l, svec(Z)): views of its blocks, updated in place
    rho = max(1.0, float(np.abs(d).max(initial=0.0)))
    ident = svec(np.eye(n))
    w = np.concatenate([rho * ident, np.zeros(nv - sd), np.full(m, rho), np.ones(m), ident])
    SL, ZL, ZV = slice(nv, nv + m), slice(nv + m, nv + 2 * m), slice(nv + 2 * m, None)
    ORTH = slice(nv, nv + 2 * m)  # (s, z_l)
    u, s, zl, zv = w[:nv], w[SL], w[ZL], w[ZV]
    idx, scale = _smat_index(n)
    pidx = np.array([idx, nv + 2 * m + idx])

    def pair(v):
        """smat(v[:sd], n) and smat(v[ZV], n), stacked, from one gather."""
        return v[pidx] / scale

    d_norm = 1.0 + math.sqrt(d @ d)
    c_norm = 1.0 + math.sqrt(cvec @ cvec)
    best = None

    M = np.empty((nv, nv))  # the Newton matrix, refilled in place every iteration
    M_diag, eye = M.reshape(-1)[:: nv + 1], np.eye(n)
    status = SolveStatus.MaxIter
    for it in range(1, MAX_ITER + 1):
        r_p = d + B @ u - s
        r_d = zl @ B - cvec
        r_d[:sd] += zv
        gap = float(s @ zl + u[:sd] @ zv)
        pres = math.sqrt(r_p @ r_p) / d_norm
        dres = math.sqrt(r_d @ r_d) / c_norm
        rel_gap = gap / (1.0 + abs(float(cvec @ u)) + abs(float(d @ zl)))
        score = max(pres, dres, rel_gap)
        if best is None or score < best[0]:
            best = (score, w.copy(), pres, dres, rel_gap)
            best_it = it
        if pres <= TOL and dres <= TOL and rel_gap <= TOL:
            status = SolveStatus.Optimal
            break
        if it - best_it > 15:
            break

        if not np.isfinite(w).all():
            break
        mu = gap / (m + n)
        try:
            G, Ginv, Winv, lam = _nt_scaling_psd(pair(w))
        except np.linalg.LinAlgError:
            break

        frame = np.array([Ginv, G.T])
        zs = zl / s
        zs_rp = zs * r_p
        K = skron(Winv)
        schur_matrix(B, zs, K, out=M)
        M_diag += 1e-14 * M.trace() / nv
        try:
            Li = _tril_inv(np.linalg.cholesky(M))  # positive-definiteness guard; M^-1 = Li^T Li
        except np.linalg.LinAlgError:
            break

        def direction(q_l, q_z):
            """dw = (du, ds, dz_l, svec(dZ)) for the complementarity right side (q_l, q_z)."""
            dw = np.empty_like(w)
            du, ds = dw[:nv], dw[SL]
            rhs = r_d + (q_l - zs_rp) @ B
            rhs[:sd] += q_z
            np.matmul(Li @ rhs, Li, out=du)
            np.add(r_p, B @ du, out=ds)
            np.subtract(q_l, zs * ds, out=dw[ZL])
            np.subtract(q_z, K @ du[:sd], out=dw[ZV])
            return dw

        def scaled_step(dw):
            """The direction's PSD parts in the NT frame, G^-1 dS G^-T and
            G^T dZ G, and the largest step that keeps s, S, z_l and Z in the cones."""
            D = frame @ pair(dw) @ frame.transpose(0, 2, 1)
            alpha = min(_orthant_step(w[ORTH], dw[ORTH]), _psd_step(lam, D))
            return D[0], D[1], alpha

        # predictor (affine) direction: q = -(z_l, svec(Z))
        try:
            dw_a = direction(-zl, -zv)
            Sa, Za, a_aff = scaled_step(dw_a)
        except np.linalg.LinAlgError:
            break
        alpha_aff = min(1.0, 0.999 * a_aff)
        w_aff = w + alpha_aff * dw_a
        gap_aff = float(w_aff[SL] @ w_aff[ZL] + w_aff[:sd] @ w_aff[ZV])
        sigma = min(max((gap_aff / gap) ** 3, 1e-10), 0.99)

        # corrector with Mehrotra second-order terms; in the NT frame the
        # Lyapunov equation diag(lam) o X = sigma mu I - (Sa Za + Za Sa) / 2
        # is solved entrywise
        ql = (sigma * mu - dw_a[SL] * dw_a[ZL]) / s - zl
        SZ = Sa @ Za
        X = (2.0 * sigma * mu * eye - SZ - SZ.T) / np.add.outer(lam, lam)
        Qp = Ginv.T @ (X - np.diag(lam)) @ Ginv
        try:
            dw = direction(ql, svec(Qp))
            alpha = min(1.0, 0.99 * scaled_step(dw)[2])
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break
        w += alpha * dw
        # one Newton system at a time: drop this one's factor inverse,
        # skron(W^-1) and directions before the next is assembled into M
        del Li, K, dw_a, w_aff, dw

    _, w, pres, dres, rel_gap = best
    linear_values = {v: float(y) for v, y in zip(problem.var_names, w[sd:nv])}
    if status != SolveStatus.Optimal and max(pres, dres, rel_gap) <= 100 * TOL:
        status = SolveStatus.Optimal

    return SdpSolution(
        objective=linear_values[OBJECTIVE],
        gram=smat(w[:sd], n),
        linear_values=linear_values,
        duals=w[ZL].copy(),
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


def verify_solution(problem: SdpProblem, solution: SdpSolution) -> VerificationReport:
    """Recheck of a solution from its returned Gram matrix, values and
    multipliers alone, independent of the solver's iterates, slack variables
    and residuals: row slacks, PSD-ness, complementarity and duality gap, the
    last two against the SDP's own optimum ``linear_values["l"]``, not
    ``objective``, which ``pep.solve_pep`` maps to user units."""
    failures = []
    G = 0.5 * (solution.gram + solution.gram.T)
    rows = problem.constraints
    y = np.array([solution.linear_values[v] for v in problem.var_names])
    slacks = rows.B @ np.concatenate([svec(G), y]) + rows.const
    min_slack = float(slacks.min())
    if min_slack < -VERIFY_TOL:
        failures.append(f"constraint slack {min_slack} below -{VERIFY_TOL}")
    min_eig = float(np.linalg.eigvalsh(G).min())
    if min_eig < -VERIFY_TOL:
        failures.append(f"gram eigenvalue {min_eig} below -{VERIFY_TOL}")
    comp = float(np.abs(slacks * solution.duals).max()) if len(slacks) else 0.0
    opt = solution.linear_values[OBJECTIVE]
    gap = abs(opt - float(rows.const @ solution.duals))
    if comp > 100 * VERIFY_TOL * (1.0 + abs(opt)):
        failures.append(f"complementarity residual {comp}")
    if gap > 100 * VERIFY_TOL * (1.0 + abs(opt)):
        failures.append(f"duality gap {gap}")
    return VerificationReport(
        all_pass=not failures,
        min_slack=min_slack,
        min_gram_eigenvalue=min_eig,
        complementarity=comp,
        duality_gap=gap,
        failures=failures,
    )
