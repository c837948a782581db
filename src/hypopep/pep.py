"""Discretized performance-estimation problems for the gradient method and
their Gram-lifted semidefinite programs.

The Gram basis is [g_0, ..., g_N, x_0] (dimension N+2); iterates are
eliminated through the step recursion x_{i+1} = x_i - (h_i/L) g_i. For the
gap-to-optimal variant the optimal point is pinned at the origin with zero
gradient and zero value, which is without loss of generality by translation
invariance.

The interpolation rows are not written out here: ``build_sdp`` evaluates
``interpolation.interpolation_slack``, the inequality that
``check_interpolable`` applies to triplets, on the points' Gram
coefficients, so a row's matrix A_ij satisfies
<A_ij, P^T P> + f_i - f_j = slack of the triplets (P x_i, P g_i, f_i).
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
)
from .interpolation import check_interpolable, interpolation_slack


class IndefiniteGram(RuntimeError):
    pass


class InterpolationFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class PepProblem:
    cls: CurvatureClass
    sched: StepSchedule
    delta: float
    init_kind: NumeratorKind

    def __post_init__(self):
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.cls.unbounded_below:
            raise ValidationError("PEP assembly requires a finite lower curvature")

    @property
    def gram_dim(self) -> int:
        """Size of the Gram basis [g_0, ..., g_N, x_0]."""
        return self.sched.n + 2


@dataclass(frozen=True)
class SdpConstraint:
    """Affine row A . G + sum_v lin[v] * v + const >= 0."""

    A: np.ndarray
    lin: dict[str, float]
    const: float
    label: str = ""


@dataclass(frozen=True)
class SdpProblem:
    gram_dim: int
    var_names: tuple[str, ...]
    constraints: tuple[SdpConstraint, ...]
    objective_var: str = "l"


def _sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized outer products (u v^T + v u^T) / 2 along the last axis."""
    m = u[..., :, None] * v[..., None, :]
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def build_sdp(p: PepProblem) -> SdpProblem:
    """Assemble the Gram-lifted SDP for a discretized PEP.

    Rows: pairwise interpolation inequalities (including the optimal point
    for gap_to_optimal), descent rows pinning the optimal value, the initial
    condition, and the epigraph rows G_ii >= l for the min-gradient objective.
    The last function value (f_N or f_*) is fixed to zero to remove the
    value-translation degree of freedom.

    Each point is a pair of coefficient vectors over the Gram basis, one for
    its gradient and one for its iterate. The interpolation rows' matrices
    are ``interpolation_slack`` of all ordered pairs at once, with
    symmetrized outer products as the bilinear product; the function values
    enter through the linear terms only.
    """
    N = p.sched.n
    n = p.gram_dim
    L = p.cls.L
    e = np.eye(n)

    opt = p.init_kind == NumeratorKind.gap_to_optimal
    # points 0..N, then the optimal point (0, 0, 0) for gap_to_optimal
    k = N + 2 if opt else N + 1
    Gc = np.zeros((k, n))  # gradient coefficients
    Xc = np.zeros((k, n))  # iterate coefficients
    Gc[: N + 1] = e[: N + 1]
    Xc[0] = e[N + 1]
    for i in range(N):
        Xc[i + 1] = Xc[i] - (p.sched.steps[i] / L) * e[i]
    # value variable of each point; the last point's value (f_N or f_*) is 0
    f_vars = [f"f_{i}" for i in range(k - 1)] + [None]
    var_names = tuple(f_vars[:-1]) + ("l",)
    names = [str(i) for i in range(N + 1)] + (["*"] if opt else [])

    I, J = np.nonzero(~np.eye(k, dtype=bool))  # ordered pairs i != j, row-major
    A = interpolation_slack(0.0, Xc[I] - Xc[J], Gc[I] - Gc[J], Gc[J], p.cls, _sym_outer)
    constraints: list[SdpConstraint] = []
    for A_ij, i, j in zip(A, I.tolist(), J.tolist()):
        lin = {v: c for v, c in ((f_vars[i], 1.0), (f_vars[j], -1.0)) if v is not None}
        constraints.append(
            SdpConstraint(A=A_ij, lin=lin, const=0.0, label=f"interp[{names[i]},{names[j]}]")
        )

    GG = _sym_outer(Gc[: N + 1], Gc[: N + 1])  # g_i g_i^T
    if opt:
        # f_i - |g_i|^2/(2L) - f_* >= 0, with f_* = 0
        A = -GG / (2.0 * L)
        for i in range(N + 1):
            constraints.append(
                SdpConstraint(A=A[i], lin={f"f_{i}": 1.0}, const=0.0, label=f"descent[{i}]")
            )
    # f_* - f_0 + delta >= 0, or f_N - f_0 + delta >= 0 with f_N = 0 for gap_to_last
    constraints.append(
        SdpConstraint(A=np.zeros((n, n)), lin={"f_0": -1.0}, const=p.delta, label="initial")
    )
    for i in range(N + 1):
        constraints.append(
            SdpConstraint(A=GG[i], lin={"l": -1.0}, const=0.0, label=f"epigraph[{i}]")
        )

    return SdpProblem(gram_dim=n, var_names=var_names, constraints=tuple(constraints))


def extract_triplets(p: PepProblem, sdp_solution, rank_tol: float = 1e-7) -> TripletSet:
    """Recover an interpolable triplet set from a solved Gram matrix.

    Factors G = P^T P through an eigendecomposition (small negative
    eigenvalues are clipped), reconstructs iterates via the step recursion
    and verifies the result against the interpolation conditions.
    """
    G = np.asarray(sdp_solution.gram, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w.min() < -1e-6:
        raise IndefiniteGram(f"Gram matrix has eigenvalue {w.min()}")
    w = np.clip(w, 0.0, None)
    keep = w > rank_tol * max(w.max(), 1.0)
    rank = int(keep.sum())
    d = max(rank, 1)
    P = np.zeros((d, G.shape[0]))
    if rank > 0:
        P[:rank] = (np.sqrt(w[keep])[:, None] * V[:, keep].T)

    N = p.sched.n
    L = p.cls.L
    gs = [P[:, i] for i in range(N + 1)]
    xs = [P[:, N + 1]]
    for i in range(N):
        xs.append(xs[-1] - (p.sched.steps[i] / L) * gs[i])

    vals = dict(sdp_solution.linear_values)
    opt = p.init_kind == NumeratorKind.gap_to_optimal
    if not opt:
        vals.setdefault(f"f_{N}", 0.0)
    trips = [OracleTriplet(xs[i], gs[i], float(vals[f"f_{i}"])) for i in range(N + 1)]
    if opt:
        trips.append(OracleTriplet(np.zeros(d), np.zeros(d), 0.0))
    ts = TripletSet(tuple(trips))
    report = check_interpolable(ts, p.cls, tol=1e-6)
    if not report.feasible:
        raise InterpolationFailure(
            f"extracted triplets violate interpolation by {report.worst_violation}"
        )
    return ts
