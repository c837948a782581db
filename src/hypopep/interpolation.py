"""Interpolation-condition checking for curvature classes and evaluation of
an explicit interpolating function from a triplet set.

The pairwise interpolation inequality of Taylor, Hendrickx & Glineur
(Math. Prog. 2017) is written once, in ``interpolation_slack``, as a
function of the differences of a pair and of the bilinear product used to
combine them. ``slack_matrix`` evaluates it with plain dot products for all
n(n-1) ordered pairs of a triplet set in one array pass over row blocks;
``pep.build_sdp`` evaluates it with symmetrized outer products to get the
Gram-form rows of the performance-estimation SDP. ``check_interpolable``
reports the most negative slack and ``pair_slack`` is its two-point case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CurvatureClass, OracleTriplet, TripletSet, ValidationError


class DegenerateClass(ValidationError):
    pass


class NotInterpolable(ValidationError):
    pass


class TooManyTriplets(ValidationError):
    pass


class SolverStall(RuntimeError):
    pass


# eval_interpolating enumerates 2^n - 1 active sets.
MAX_EVAL_TRIPLETS = 12


@dataclass(frozen=True)
class InterpolationReport:
    feasible: bool
    worst_violation: float
    violating_pair: tuple[int, int] | None
    f_star: float
    i_star: int
    x_star: np.ndarray


# Largest temporary array, in elements, that slack_matrix allocates.
# Several are alive at once; at this size together they stay below the
# n x n result for the n ~ 200 sets of long constructions.
_BLOCK_ELEMENTS = 1 << 13


def interpolation_slack(df, dx, dg, g_b, cls: CurvatureClass, dot):
    """Slack of the interpolation inequality for ordered pairs (a, b).

    With ``df = f_a - f_b``, ``dx = x_a - x_b``, ``dg = g_a - g_b`` and
    ``kappa = mu / L``, the slack is

        df - <g_b, dx> - (|dg|^2 / L + mu |dx|^2 - 2 kappa <dg, dx>) / (2 (1 - kappa)),

    where ``dot`` supplies the bilinear product <., .>: dot products for
    evaluated triplets, symmetrized outer products for Gram coefficients.
    Nonnegative slack for all ordered pairs is necessary and sufficient for a
    triplet set to be interpolable by a function with curvature in [mu, L].
    """
    mu, L = cls.mu, cls.L
    kappa = mu / L
    lhs = df - dot(g_b, dx)
    rhs = (
        dot(dg, dg) / L + mu * dot(dx, dx) - 2.0 * kappa * dot(dg, dx)
    ) / (2.0 * (1.0 - kappa))
    return lhs - rhs


def slack_matrix(
    X: np.ndarray, G: np.ndarray, f: np.ndarray, cls: CurvatureClass
) -> np.ndarray:
    """Slacks of ``interpolation_slack`` for every ordered pair of a triplet set.

    ``X`` and ``G`` are n x d (points and gradients), ``f`` has length n;
    entry (a, b) is the slack for the ordered pair (a, b).

    Differences are taken pairwise before any product, because expanding
    into Gram matrices cancels badly for close points far from the origin.
    Rows are processed in blocks so that no temporary exceeds
    ``_BLOCK_ELEMENTS`` elements.
    """
    n, d = X.shape
    S = np.empty((n, n))
    block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    for r in range(0, n, block):
        a = slice(r, r + block)
        dx = X[a, None, :] - X[None, :, :]
        dg = G[a, None, :] - G[None, :, :]
        S[a] = interpolation_slack(f[a, None] - f[None, :], dx, dg, G[None, :, :], cls, _dot)
    return S


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the others."""
    return np.einsum("...k,...k->...", u, v)


def _stack(triplets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.array([t.x for t in triplets])
    G = np.array([t.g for t in triplets])
    f = np.array([t.f for t in triplets], dtype=float)
    return X, G, f


def pair_slack(ti: OracleTriplet, tj: OracleTriplet, cls: CurvatureClass) -> float:
    """Slack of the pairwise interpolation inequality for ordered pair (i, j)."""
    return float(slack_matrix(*_stack((ti, tj)), cls)[0, 1])


def _loop_order(pair: tuple[int, int]) -> tuple[int, int, bool]:
    """Sort key for the pair order that check_interpolable documents."""
    a, b = pair
    return min(a, b), max(a, b), a > b


def check_interpolable(
    ts: TripletSet, cls: CurvatureClass, tol: float = 1e-9
) -> InterpolationReport:
    """Evaluate all pairwise interpolation slacks and locate the implied minimum.

    Reports the most negative slack instead of a bare boolean because PEP
    solutions carry solver noise. Among equal slacks the reported pair is
    the first in the order (0, 1), (1, 0), (0, 2), (2, 0), ..., (1, 2), ...:
    pairs i < j row by row, each before its reverse.
    """
    if cls.mu == cls.L:
        raise DegenerateClass("mu = L makes the interpolation inequality degenerate")
    X, G, f = _stack(ts.triplets)
    S = slack_matrix(X, G, f, cls)
    # the diagonal is 0 or NaN; NaN and -0.0 slacks count as no violation
    S[~(S < 0.0)] = 0.0
    worst = float(S.min())
    worst_pair = None
    if worst < 0.0:
        a, b = np.nonzero(S == worst)
        worst_pair = min(zip(a.tolist(), b.tolist()), key=_loop_order)
    descents = f - _dot(G, G) / (2.0 * cls.L)
    i_star = int(np.argmin(descents))
    return InterpolationReport(
        feasible=worst >= -tol,
        worst_violation=worst,
        violating_pair=worst_pair,
        f_star=float(descents[i_star]),
        i_star=i_star,
        x_star=X[i_star] - G[i_star] / cls.L,
    )


def _simplex_qp_kkt_residual(Q: np.ndarray, b: np.ndarray, alpha: np.ndarray) -> float:
    grad = Q @ alpha + b
    support = alpha > 1e-12
    if not support.any():
        return float("inf")
    nu = float(grad[support].mean())
    res = abs(alpha.sum() - 1.0)
    res = max(res, float(np.abs(grad[support] - nu).max()))
    if (~support).any():
        res = max(res, float(np.maximum(nu - grad[~support], 0.0).max()))
    res = max(res, float(-alpha.min()) if alpha.min() < 0 else 0.0)
    return res


def _solve_simplex_qp(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact simplex-constrained QP minimizer by active-set enumeration."""
    n = Q.shape[0]
    best_alpha, best_obj = None, np.inf
    indices = list(range(n))
    for mask in range(1, 1 << n):
        sub = [i for i in indices if mask >> i & 1]
        k = len(sub)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = Q[np.ix_(sub, sub)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-b[sub], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        a_sub = sol[:k]
        if a_sub.min() < -1e-11:
            continue
        alpha = np.zeros(n)
        alpha[sub] = np.clip(a_sub, 0.0, None)
        alpha /= alpha.sum()
        obj = 0.5 * alpha @ Q @ alpha + b @ alpha
        if obj < best_obj:
            best_obj, best_alpha = obj, alpha
    return best_alpha


def eval_interpolating(
    ts: TripletSet, cls: CurvatureClass, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value at y of an explicit interpolating function for the triplet set.

    The function is a minimum over simplex-weighted combinations of shifted
    quadratics; it reproduces (f_i, g_i) at every x_i and attains the minimum
    value implied by check_interpolable. Returns the value and the minimizing
    simplex weights.

    The simplex QP is solved exactly by enumerating its 2^n - 1 supports,
    so at most ``MAX_EVAL_TRIPLETS`` triplets are accepted.
    """
    if len(ts) > MAX_EVAL_TRIPLETS:
        raise TooManyTriplets(
            f"{len(ts)} triplets; the exact simplex QP handles at most {MAX_EVAL_TRIPLETS}"
        )
    report = check_interpolable(ts, cls, tol=1e-7)
    if not report.feasible:
        raise NotInterpolable(
            f"worst interpolation violation {report.worst_violation} at pair "
            f"{report.violating_pair}"
        )
    L = cls.L
    kappa = cls.mu / L
    y = np.atleast_1d(np.asarray(y, dtype=float))
    V = np.stack([t.x - t.g / L for t in ts.triplets], axis=1)  # d x n
    c = np.array(
        [
            t.f
            - float(t.g @ t.g) / (2.0 * L)
            - 0.5 * L * kappa / (1.0 - kappa) * float(v @ v)
            for t, v in zip(ts.triplets, V.T)
        ]
    )
    # objective over alpha: L/2 |y - V a|^2 + L/2 * kappa/(1-kappa) |V a|^2 + c.a
    Q = (L / (1.0 - kappa)) * (V.T @ V)
    b = -L * (V.T @ y) + c
    const = 0.5 * L * float(y @ y)
    alpha = _solve_simplex_qp(Q, b)
    if alpha is None or _simplex_qp_kkt_residual(Q, b, alpha) > 1e-10:
        raise SolverStall("simplex QP did not reach KKT residual 1e-10")
    value = 0.5 * alpha @ Q @ alpha + b @ alpha + const
    return float(value), alpha


def quadratic_bounds_check(
    f_eval,
    grad_eval,
    cls: CurvatureClass,
    sample_pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-9,
) -> bool:
    """True iff the two-sided curvature inequality holds at every sampled pair."""
    for x, y in sample_pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dx = x - y
        nrm2 = float(dx @ dx)
        r = f_eval(x) - f_eval(y) - float(np.atleast_1d(grad_eval(y)) @ dx)
        if r < 0.5 * cls.mu * nrm2 - tol or r > 0.5 * cls.L * nrm2 + tol:
            return False
    return True
