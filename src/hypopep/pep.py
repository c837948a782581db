"""Discretized performance-estimation problems for the gradient method and
their Gram-lifted semidefinite programs.

The Gram basis is [g_0, ..., g_N, x_0] (dimension N+2). ``_points`` gives
each point as a pair of coefficient vectors over that basis, one for its
gradient and one for its iterate; iterates are eliminated through the step
recursion x_{i+1} = x_i - (h_i/L) g_i. For the gap-to-optimal variant the
optimal point * is pinned at the origin with zero gradient and zero value,
which is without loss of generality by translation invariance. The last
point's value (f_N or f_*) is fixed at 0. ``build_sdp`` and
``extract_triplets`` both read the points from ``_points``.

The SDP is an ``sdpsolver.SdpProblem``, whose rows are stacked arrays
(``sdpsolver.SdpRows``). The interpolation rows are not written out here:
``build_sdp`` evaluates ``interpolation.interpolation_slack``, the
inequality that ``check_interpolable`` applies to triplets, on the points'
Gram coefficients, so a row's matrix A_ij satisfies
<A_ij, P^T P> + f_i - f_j = slack of the triplets (P x_i, P g_i, f_i).

``solve_pep`` is the checked route from a ``PepProblem`` to an optimum: it
returns only an Optimal solution that passes ``verify_solution``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CurvatureClass,
    NumeratorKind,
    OracleTriplet,
    StepSchedule,
    TripletSet,
    ValidationError,
    validate_delta,
)
from .interpolation import check_interpolable, interpolation_slack
from .sdpsolver import (
    OBJECTIVE,
    SdpProblem,
    SdpRows,
    SdpSolution,
    SolveStatus,
    check_gram_dim,
    solve,
    verify_solution,
)

RANK_TOL = 1e-7  # eigenvalues of the Gram matrix kept, relative to the largest


class IndefiniteGram(RuntimeError):
    pass


class InterpolationFailure(RuntimeError):
    pass


class SolverFailure(RuntimeError):
    """The solver did not return a verified optimum."""


@dataclass(frozen=True)
class PepProblem:
    cls: CurvatureClass
    sched: StepSchedule
    delta: float
    init_kind: NumeratorKind

    def __post_init__(self):
        validate_delta(self.delta)
        if self.cls.unbounded_below:
            raise ValidationError("PEP assembly requires a finite lower curvature")

    @property
    def gram_dim(self) -> int:
        """Size of the Gram basis [g_0, ..., g_N, x_0]."""
        return self.sched.n + 2


def _points(p: PepProblem) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and iterate coefficients (Gc, Xc) over the Gram basis.

    Rows are the points 0..N, then * (all zeros) for gap_to_optimal. The
    last point's value is the one fixed at 0.
    """
    N, n = p.sched.n, p.gram_dim
    k = N + 2 if p.init_kind == NumeratorKind.gap_to_optimal else N + 1
    Gc = np.zeros((k, n))
    Gc[: N + 1] = np.eye(N + 1, n)
    # x_i = x_0 - sum_{j<i} (h_j / L) g_j
    Xc = np.zeros((k, n))
    Xc[: N + 1, N + 1] = 1.0
    Xc[1 : N + 1, :N] = np.tril(np.broadcast_to(-np.asarray(p.sched.steps) / p.cls.L, (N, N)))
    return Gc, Xc


def _sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized outer products (u v^T + v u^T) / 2 along the last axis."""
    m = u[..., :, None] * v[..., None, :]
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def build_sdp(p: PepProblem) -> SdpProblem:
    """Assemble the Gram-lifted SDP for a discretized PEP.

    Rows: pairwise interpolation inequalities (including the optimal point
    for gap_to_optimal), descent rows pinning the optimal value, the initial
    condition, and the epigraph rows G_ii >= l for the min-gradient objective.

    The interpolation rows' matrices are ``interpolation_slack`` of all
    ordered pairs of ``_points`` at once, with symmetrized outer products as
    the bilinear product; the function values enter through the linear
    terms only.
    """
    n = p.gram_dim
    check_gram_dim(n)  # before allocating O(N^2) dense rows
    N, L = p.sched.n, p.cls.L
    opt = p.init_kind == NumeratorKind.gap_to_optimal
    Gc, Xc = _points(p)
    k = len(Gc)
    # variables f_0, ..., f_{k-2}, l; F[i] is the value of point i in them
    # (the last point's value is 0) and e_l is the objective l
    var_names = tuple(f"f_{i}" for i in range(k - 1)) + (OBJECTIVE,)
    F = np.eye(k)
    F[-1, -1] = 0.0
    e_l = np.eye(k)[-1]
    names = [str(i) for i in range(N + 1)] + (["*"] if opt else [])

    I, J = np.nonzero(~np.eye(k, dtype=bool))  # ordered pairs i != j, row-major
    blocks = [(
        interpolation_slack(0.0, Xc[I] - Xc[J], Gc[I] - Gc[J], Gc[J], p.cls, _sym_outer),
        F[I] - F[J],
        np.zeros(len(I)),
        [f"interp[{names[i]},{names[j]}]" for i, j in zip(I.tolist(), J.tolist())],
    )]
    GG = _sym_outer(Gc[: N + 1], Gc[: N + 1])  # g_i g_i^T
    if opt:
        # f_i - |g_i|^2/(2L) - f_* >= 0, with f_* = 0
        blocks.append((-GG / (2.0 * L), F[: N + 1], np.zeros(N + 1),
                       [f"descent[{i}]" for i in range(N + 1)]))
    # f_* - f_0 + delta >= 0, or f_N - f_0 + delta >= 0 with f_N = 0 for gap_to_last
    blocks.append((np.zeros((1, n, n)), -F[:1], np.array([p.delta]), ["initial"]))
    blocks.append((GG, np.tile(-e_l, (N + 1, 1)), np.zeros(N + 1),
                   [f"epigraph[{i}]" for i in range(N + 1)]))

    A, lin, const, labels = (np.concatenate(part) for part in zip(*blocks))
    return SdpProblem(n, var_names, SdpRows(A, lin, const, tuple(labels.tolist())))


def solve_pep(p: PepProblem) -> SdpSolution:
    """Build and solve the PEP; only an Optimal solution that passes
    ``verify_solution`` is returned, anything else raises SolverFailure."""
    sdp = build_sdp(p)
    sol = solve(sdp)
    if sol.status != SolveStatus.Optimal:
        raise SolverFailure(f"solver status {sol.status.value}")
    report = verify_solution(sdp, sol)
    if not report.all_pass:
        raise SolverFailure("verification failed: " + "; ".join(report.failures))
    return sol


def extract_triplets(p: PepProblem, sdp_solution: SdpSolution) -> TripletSet:
    """Recover an interpolable triplet set from a solved Gram matrix.

    Factors G = P^T P through an eigendecomposition (small negative
    eigenvalues are clipped), maps the points' coefficients through P and
    verifies the result against the interpolation conditions.
    """
    G = np.asarray(sdp_solution.gram, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w.min() < -1e-6:
        raise IndefiniteGram(f"Gram matrix has eigenvalue {w.min()}")
    w = np.clip(w, 0.0, None)
    keep = w > RANK_TOL * max(w.max(), 1.0)
    rank = int(keep.sum())
    P = np.zeros((max(rank, 1), G.shape[0]))
    if rank > 0:
        P[:rank] = (np.sqrt(w[keep])[:, None] * V[:, keep].T)

    Gc, Xc = _points(p)
    vals = [sdp_solution.linear_values[f"f_{i}"] for i in range(len(Gc) - 1)] + [0.0]
    ts = TripletSet(tuple(
        OracleTriplet(P @ x, P @ g, f) for x, g, f in zip(Xc, Gc, vals)
    ))
    report = check_interpolable(ts, p.cls, tol=1e-6)
    if not report.feasible:
        raise InterpolationFailure(
            f"extracted triplets violate interpolation by {report.worst_violation}"
        )
    return ts
