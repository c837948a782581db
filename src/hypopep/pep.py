"""Discretized performance-estimation problems for the gradient method and
their Gram-lifted semidefinite programs.

The Gram basis is [g_0, ..., g_N, x_0] (dimension N+2); iterates are
eliminated through the step recursion x_{i+1} = x_i - (h_i/L) g_i. For the
gap-to-optimal variant the optimal point is pinned at the origin with zero
gradient and zero value, which is without loss of generality by translation
invariance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CurvatureClass,
    NumeratorKind,
    OracleTriplet,
    StepSchedule,
    TripletSet,
    ValidationError,
)
from .interpolation import check_interpolable


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "gram_dim": self.gram_dim,
                "var_names": list(self.var_names),
                "objective": self.objective_var,
                "constraints": [
                    {
                        "A": c.A.flatten().tolist(),
                        "lin": c.lin,
                        "const": c.const,
                        "label": c.label,
                    }
                    for c in self.constraints
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "SdpProblem":
        obj = json.loads(text)
        n = obj["gram_dim"]
        return SdpProblem(
            gram_dim=n,
            var_names=tuple(obj["var_names"]),
            constraints=tuple(
                SdpConstraint(
                    A=np.array(c["A"], dtype=float).reshape(n, n),
                    lin={k: float(v) for k, v in c["lin"].items()},
                    const=float(c["const"]),
                    label=c.get("label", ""),
                )
                for c in obj["constraints"]
            ),
            objective_var=obj.get("objective", "l"),
        )


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = np.outer(a, b)
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class _Point:
    """One index of the discretized problem, expressed over the Gram basis."""

    g: np.ndarray           # gradient coefficients
    x: np.ndarray           # iterate coefficients
    f_var: str | None       # linear variable name; None means fixed value
    f_fixed: float = 0.0


def _interp_matrix(pi: _Point, pj: _Point, cls: CurvatureClass) -> np.ndarray:
    """Quadratic part A_ij of the pairwise interpolation row for (i, j)."""
    mu, L = cls.mu, cls.L
    kappa = mu / L
    dg = pi.g - pj.g
    dx = pi.x - pj.x
    A = -_sym_outer(pj.g, dx)
    scale = 1.0 / (2.0 * (1.0 - kappa))
    A -= scale * (
        _sym_outer(dg, dg) / L + mu * _sym_outer(dx, dx) - 2.0 * kappa * _sym_outer(dg, dx)
    )
    return A


def build_sdp(p: PepProblem) -> SdpProblem:
    """Assemble the Gram-lifted SDP for a discretized PEP.

    Rows: pairwise interpolation inequalities (including the optimal point
    for gap_to_optimal), descent rows pinning the optimal value, the initial
    condition, and the epigraph rows G_ii >= l for the min-gradient objective.
    The last function value (f_N or f_*) is fixed to zero to remove the
    value-translation degree of freedom.
    """
    N = p.sched.n
    n = p.gram_dim
    L = p.cls.L
    e = np.eye(n)

    points: list[_Point] = []
    x = e[N + 1].copy()  # x_0 over the basis
    for i in range(N + 1):
        points.append(_Point(g=e[i].copy(), x=x.copy(), f_var=f"f_{i}"))
        if i < N:
            x = x - (p.sched.steps[i] / L) * e[i]

    opt = p.init_kind == NumeratorKind.gap_to_optimal
    if opt:
        points.append(_Point(g=np.zeros(n), x=np.zeros(n), f_var=None, f_fixed=0.0))
        var_names = tuple(f"f_{i}" for i in range(N + 1)) + ("l",)
    else:
        points[N] = _Point(g=points[N].g, x=points[N].x, f_var=None, f_fixed=0.0)
        var_names = tuple(f"f_{i}" for i in range(N)) + ("l",)

    def f_terms(pt: _Point, coef: float):
        if pt.f_var is None:
            return {}, coef * pt.f_fixed
        return {pt.f_var: coef}, 0.0

    constraints: list[SdpConstraint] = []
    idx = list(range(len(points)))
    names = [str(i) for i in range(N + 1)] + (["*"] if opt else [])
    for i in idx:
        for j in idx:
            if i == j:
                continue
            A = _interp_matrix(points[i], points[j], p.cls)
            lin: dict[str, float] = {}
            const = 0.0
            for pt, coef in ((points[i], 1.0), (points[j], -1.0)):
                terms, fixed = f_terms(pt, coef)
                for k, v in terms.items():
                    lin[k] = lin.get(k, 0.0) + v
                const += fixed
            constraints.append(
                SdpConstraint(A=A, lin=lin, const=const, label=f"interp[{names[i]},{names[j]}]")
            )

    if opt:
        for i in range(N + 1):
            # f_i - |g_i|^2/(2L) - f_* >= 0, with f_* = 0
            A = -_sym_outer(points[i].g, points[i].g) / (2.0 * L)
            constraints.append(
                SdpConstraint(A=A, lin={f"f_{i}": 1.0}, const=0.0, label=f"descent[{i}]")
            )
        # f_* - f_0 + delta >= 0
        constraints.append(
            SdpConstraint(A=np.zeros((n, n)), lin={"f_0": -1.0}, const=p.delta, label="initial")
        )
    else:
        # f_N - f_0 + delta >= 0, with f_N = 0
        constraints.append(
            SdpConstraint(A=np.zeros((n, n)), lin={"f_0": -1.0}, const=p.delta, label="initial")
        )

    for i in range(N + 1):
        A = _sym_outer(e[i], e[i])
        constraints.append(
            SdpConstraint(A=A, lin={"l": -1.0}, const=0.0, label=f"epigraph[{i}]")
        )

    return SdpProblem(gram_dim=n, var_names=var_names, constraints=tuple(constraints))


def normalize_homogeneous(p: PepProblem) -> tuple[PepProblem, tuple[float, float]]:
    """Reduce to L = delta = 1; the optimum scales linearly in L * delta."""
    normalized = PepProblem(
        cls=CurvatureClass(mu=p.cls.kappa, L=1.0),
        sched=p.sched,
        delta=1.0,
        init_kind=p.init_kind,
    )
    return normalized, (p.cls.L, p.delta)


def rescale_optimum(value: float, scale: tuple[float, float]) -> float:
    L, delta = scale
    return value * L * delta


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
