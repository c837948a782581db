"""Interpolation-condition checking for curvature classes.

The pairwise interpolation inequality of Taylor, Hendrickx & Glineur
(Math. Prog. 2017) is written once, in ``interpolation_slack``, as a
function of the differences of a pair and of the bilinear product used to
combine them. ``slack_matrix`` evaluates it with plain dot products for all
n(n-1) ordered pairs of a triplet set's stacked rows (X, G, f) in one
array pass over row blocks;
``pep.build_sdp`` evaluates it at L = 1 with symmetrized outer products to
get the Gram-form rows of the performance-estimation SDP. ``check_interpolable``
reports the most negative slack of a triplet set. The conditions are only
ever used as inequalities: no interpolating function is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CurvatureClass, TripletSet, ValidationError


class DegenerateClass(ValidationError):
    pass


@dataclass(frozen=True)
class InterpolationReport:
    feasible: bool
    worst_violation: float
    violating_pair: tuple[int, int] | None


# Largest temporary array, in elements, that slack_matrix allocates.
# Several are alive at once; at this size together they stay below the
# n x n result for the n ~ 200 sets of long constructions.
_BLOCK_ELEMENTS = 1 << 13


def interpolation_slack(df, dx, dg, g_b, t, L, dot):
    """Slack of the interpolation inequality for ordered pairs (a, b).

    With ``df = f_a - f_b``, ``dx = x_a - x_b``, ``dg = g_a - g_b`` and
    ``t = 1 / (1 - kappa)`` (``CurvatureClass.t``), the slack is

        df - <g_b, dx> - (t |dg|^2 / L - (1 - t) L |dx|^2) / 2 - (1 - t) <dg, dx>,

    where ``dot`` supplies the bilinear product <., .>: dot products for
    evaluated triplets, symmetrized outer products for Gram coefficients.
    Nonnegative slack for all ordered pairs is necessary and sufficient for a
    triplet set to be interpolable by a function with curvature in [mu, L].
    It is the paper's (|dg|^2 / L + mu |dx|^2 - 2 kappa <dg, dx>) / (2 (1 - kappa))
    form with kappa t = t - 1: bounded coefficients for every kappa <= 0, and
    at t = 0 (unbounded below) the descent lemma alone.
    """
    s = 1.0 - t
    return df - dot(g_b, dx) - 0.5 * (t * dot(dg, dg) / L - s * L * dot(dx, dx)) - s * dot(dg, dx)


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
        S[a] = interpolation_slack(
            f[a, None] - f[None, :], dx, dg, G[None, :, :], cls.t, cls.L, _dot
        )
    return S


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the others."""
    return np.einsum("...k,...k->...", u, v)


def _loop_order(pair: tuple[int, int]) -> tuple[int, int, bool]:
    """Sort key for the pair order that check_interpolable documents."""
    a, b = pair
    return min(a, b), max(a, b), a > b


def check_interpolable(
    ts: TripletSet, cls: CurvatureClass, tol: float = 1e-9
) -> InterpolationReport:
    """Evaluate all pairwise interpolation slacks and report the most negative.

    Reports the most negative slack instead of a bare boolean because PEP
    solutions carry solver noise. A pair whose slack is not finite is
    reported with slack -inf: the set is too large to check in doubles.
    Among equal slacks the reported pair is the first in the order (0, 1),
    (1, 0), (0, 2), (2, 0), ..., (1, 2), ...: pairs i < j row by row, each
    before its reverse.
    """
    if cls.mu == cls.L:
        raise DegenerateClass("mu = L makes the interpolation inequality degenerate")
    with np.errstate(over="ignore", invalid="ignore"):
        S = slack_matrix(ts.X, ts.G, ts.f, cls)
    # off the diagonal a slack that is not finite (|dx|^2 or |dg|^2 beyond a
    # double) says nothing, so it counts as a violation; the diagonal is 0
    # or NaN and never one, and -0.0 is no violation
    S[~np.isfinite(S)] = -np.inf
    np.fill_diagonal(S, 0.0)
    S[~(S < 0.0)] = 0.0
    worst = float(S.min())
    worst_pair = None
    if worst < 0.0:
        a, b = np.nonzero(S == worst)
        worst_pair = min(zip(a.tolist(), b.tolist()), key=_loop_order)
    return InterpolationReport(
        feasible=worst >= -tol, worst_violation=worst, violating_pair=worst_pair
    )


def quadratic_bounds_check(
    oracle,
    cls: CurvatureClass,
    sample_pairs: list[tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-9,
) -> bool:
    """True iff the two-sided curvature inequality holds at every sampled pair.

    ``oracle(x)`` returns ``(f(x), grad f(x))``, as ``TestProblem.oracle`` does.
    """
    for x, y in sample_pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        dx = x - y
        nrm2 = float(dx @ dx)
        f_y, g_y = oracle(y)
        r = oracle(x)[0] - f_y - float(np.atleast_1d(g_y) @ dx)
        if r < 0.5 * cls.mu * nrm2 - tol or r > 0.5 * cls.L * nrm2 + tol:
            return False
    return True
