"""Discretized performance-estimation problems for the gradient method and
their Gram-lifted semidefinite programs.

Every PEP is built, solved and checked at unit scale, L = delta = 1, where
its solution stays: only the optimum and the extracted triplets leave it,
each by its degree through ``core.to_user_units``. In t = 1 / (1 - kappa) the
unit rows' coefficients are bounded for every kappa in [-inf, 0]; t = 0 is
kappa = -inf.

The Gram basis holds only the coordinates the rows use. The rows see
iterates only through differences, so by translation invariance one point
sits at the origin: for gap-to-optimal the optimal point *, with zero
gradient and value, over the basis [g_0, ..., g_N, x_0]; for gap-to-last
x_0, over [g_0, ..., g_N]. ``_points`` gives each point as a pair of
coefficient vectors over that basis, one for its gradient and one for its
iterate; iterates are eliminated through the unit step recursion
x_{i+1} = x_i - h_i g_i. The last point's value (f_N or f_*) is fixed at 0.
Only ``gram_dim`` and ``_points`` lay out the basis.

The SDP is an ``sdpsolver.SdpProblem``, whose rows are one matrix over
u = (svec(G), f_0, ..., l) (``sdpsolver.SdpRows``), written in place. The
interpolation rows are not written out here: ``build_sdp`` evaluates
``interpolation.interpolation_slack``, the inequality that
``check_interpolable`` applies to triplets, on the points' Gram
coefficients, so the row of the ordered pair (i, j) satisfies
row_ij . (svec(P^T P), f) = unit-scale slack of the triplets (P x_i, P g_i, f_i).
``extract_triplets`` takes the whole factor P of the solution's G, with
``gram_dim`` rows, so its triplets' slacks are the row values
``verify_solution`` checked, and returns them as the rows of a ``TripletSet``
once ``check_interpolable`` finds no violation above ``VERIFY_TOL``, the
tolerance ``verify_solution`` holds the SDP to.

``solve_pep`` is the checked route from a ``PepProblem`` to an optimum: it
returns only an Optimal solution that passes ``verify_solution``, with its
objective in user units, or raises ScaleOverflow (``core.to_user_units``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CheckFailure,
    CurvatureClass,
    NumeratorKind,
    NumericalFailure,
    StepSchedule,
    TripletSet,
    to_user_units,
    validate_delta,
)
from .interpolation import check_interpolable, interpolation_slack
from .sdpsolver import (
    OBJECTIVE,
    VERIFY_TOL,
    SdpProblem,
    SdpRows,
    SdpSolution,
    SolveStatus,
    _triu,
    check_gram_dim,
    solve,
    verify_solution,
)

# Largest temporary array, in elements, that build_sdp allocates while it
# evaluates a block of interpolation rows.
_BLOCK_ELEMENTS = 1 << 15


class IndefiniteGram(NumericalFailure):
    pass


class InterpolationFailure(CheckFailure):
    pass


class SolverFailure(NumericalFailure):
    """The solver did not return a verified optimum."""


@dataclass(frozen=True)
class PepProblem:
    cls: CurvatureClass
    sched: StepSchedule
    delta: float
    init_kind: NumeratorKind

    def __post_init__(self):
        validate_delta(self.delta)

    @property
    def gram_dim(self) -> int:
        """Size of the Gram basis: [g_0, ..., g_N], plus x_0 for gap_to_optimal."""
        return self.sched.n + 1 + (self.init_kind == NumeratorKind.gap_to_optimal)


def _points(p: PepProblem) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale gradient and iterate coefficients (Gc, Xc) over the Gram basis.

    Rows are the points 0..N, then * (all zeros) for gap_to_optimal. The
    last point's value is the one fixed at 0.
    """
    N, n = p.sched.n, p.gram_dim
    k = N + 2 if p.init_kind == NumeratorKind.gap_to_optimal else N + 1
    Gc = np.zeros((k, n))
    Gc[: N + 1] = np.eye(N + 1, n)
    # x_i = x_0 - sum_{j<i} h_j g_j
    Xc = np.zeros((k, n))
    Xc[: N + 1, N + 1 :] = 1.0
    Xc[1 : N + 1, :N] = np.tril(np.broadcast_to(-np.asarray(p.sched.steps), (N, N)))
    return Gc, Xc


def build_sdp(p: PepProblem) -> SdpProblem:
    """Assemble the Gram-lifted SDP for a discretized PEP at unit scale.

    Rows: pairwise interpolation inequalities (including the optimal point
    for gap_to_optimal), descent rows pinning the optimal value, the initial
    condition, and the epigraph rows G_ii >= l for the min-gradient objective.
    The rows do not depend on ``p.cls.L`` or ``p.delta``.

    The row matrix is allocated once and filled block by block. The
    interpolation rows are ``interpolation_slack`` of the ordered pairs of
    ``_points``, evaluated on blocks of at most ``_BLOCK_ELEMENTS`` elements,
    with the upper triangle of the symmetrized outer products as the
    bilinear product; the function values enter through the linear terms
    only. The svec scale is applied once, at the end.
    """
    n = p.gram_dim
    check_gram_dim(n)  # before allocating the O(N^2) x O(N^2) row matrix
    N = p.sched.n
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
    tri_i, tri_j, scale = _triu(n)
    sd = len(scale)

    def sym_outer(u, v):
        """Upper triangle of (u v^T + v u^T) / 2 along the last axis."""
        return 0.5 * (u[..., tri_i] * v[..., tri_j] + u[..., tri_j] * v[..., tri_i])

    I, J = np.nonzero(~np.eye(k, dtype=bool))  # ordered pairs i != j, row-major
    labels = [f"interp[{names[i]},{names[j]}]" for i, j in zip(I.tolist(), J.tolist())]
    if opt:
        labels += [f"descent[{i}]" for i in range(N + 1)]
    labels += ["initial"] + [f"epigraph[{i}]" for i in range(N + 1)]
    B = np.zeros((len(labels), sd + k))
    const = np.zeros(len(labels))

    step = max(1, _BLOCK_ELEMENTS // sd)
    for lo in range(0, len(I), step):
        i, j = I[lo : lo + step], J[lo : lo + step]
        block = slice(lo, lo + len(i))
        B[block, :sd] = interpolation_slack(
            0.0, Xc[i] - Xc[j], Gc[i] - Gc[j], Gc[j], p.cls.t, 1.0, sym_outer
        )
        B[block, sd:] = F[i] - F[j]
    r = len(I)  # the first row after the interpolation rows
    GG = sym_outer(Gc[: N + 1], Gc[: N + 1])  # g_i g_i^T
    if opt:
        # f_i - |g_i|^2/2 - f_* >= 0, with f_* = 0
        B[r : r + N + 1, :sd] = -GG / 2.0
        B[r : r + N + 1, sd:] = F[: N + 1]
        r += N + 1
    # f_* - f_0 + 1 >= 0, or f_N - f_0 + 1 >= 0 with f_N = 0 for gap_to_last
    B[r, sd:] = -F[0]
    const[r] = 1.0
    # |g_i|^2 - l >= 0
    B[r + 1 :, :sd] = GG
    B[r + 1 :, sd:] = -e_l
    B[:, :sd] *= scale
    return SdpProblem(n, var_names, SdpRows(B, const, tuple(labels)))


def solve_pep(p: PepProblem) -> SdpSolution:
    """Build and solve the unit-scale PEP; only an Optimal solution that passes
    ``verify_solution`` (whose absolute floors suit the unit scale) is
    returned, else SolverFailure. The solution is the unit one, which
    ``extract_triplets`` reads, except ``objective``: the unit optimum
    ``linear_values["l"]``, a squared gradient, through ``core.to_user_units``."""
    sdp = build_sdp(p)
    sol = solve(sdp)
    if sol.status != SolveStatus.Optimal:
        raise SolverFailure(f"solver status {sol.status.value}")
    report = verify_solution(sdp, sol)
    if not report.all_pass:
        raise SolverFailure("verification failed: " + "; ".join(report.failures))
    objective = to_user_units(sol.objective, "g2", "the optimum", p.cls.L, p.delta)
    return replace(sol, objective=objective)


def extract_triplets(p: PepProblem, sdp_solution: SdpSolution) -> TripletSet:
    """Recover an interpolable triplet set from a unit-scale solution, as
    ``solve`` or ``solve_pep`` returns it.

    Factors the whole Gram matrix G = P^T P through an eigendecomposition
    (small negative eigenvalues are clipped; one below -``VERIFY_TOL`` is
    IndefiniteGram), so P has ``p.gram_dim`` rows and the triplets live in
    that dimension. Maps the points' coefficients through P, checks these
    unit-scale triplets against the interpolation conditions of ``p.cls`` at
    L = 1, which re-evaluates the interpolation rows of the solution up to
    rounding (InterpolationFailure if they are violated by more than
    ``VERIFY_TOL``), and returns them in user units: X, G and f each leave
    unit scale through ``core.to_user_units``.
    """
    Gc, Xc = _points(p)
    G = np.asarray(sdp_solution.gram, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w.min() < -VERIFY_TOL:
        raise IndefiniteGram(f"Gram matrix has eigenvalue {w.min()}")
    P = np.sqrt(np.clip(w, 0.0, None))[:, None] * V.T

    vals = np.array([sdp_solution.linear_values[f"f_{i}"] for i in range(len(Gc) - 1)] + [0.0])
    # checked at unit scale, where the slacks are finite: in user units
    # |x_i - x_j|^2 can overflow a double
    unit = TripletSet(Xc @ P.T, Gc @ P.T, vals)
    violation = check_interpolable(unit, CurvatureClass(p.cls.kappa, 1.0))
    if violation > VERIFY_TOL:
        raise InterpolationFailure(f"extracted triplets violate interpolation by {violation}")
    L, delta = p.cls.L, p.delta
    return TripletSet(to_user_units(unit.X, "x", "the triplets' iterates", L, delta),
                      to_user_units(unit.G, "g", "the triplets' gradients", L, delta),
                      to_user_units(unit.f, "f", "the triplets' values", L, delta))
