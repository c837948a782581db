"""Interpolation-condition checking for curvature classes.

The pairwise interpolation inequality of Taylor, Hendrickx & Glineur
(Math. Prog. 2017) is written once, in ``interpolation_slack``, as a
function of the differences of a pair and of the bilinear product used to
combine them. ``check_interpolable`` evaluates it with plain dot products
for all n(n-1) ordered pairs of a triplet set's stacked rows (X, G, f), one
row block at a time, and returns the largest violation, so its memory does
not grow with n^2; ``pep.build_sdp`` evaluates it at L = 1 with symmetrized
outer products to get the Gram-form rows of the performance-estimation SDP.
The conditions are only ever used as inequalities: no interpolating
function is built.
"""

from __future__ import annotations

import numpy as np

from .core import CurvatureClass, TripletSet


# Largest temporary array, in elements, that check_interpolable allocates
# per row block (one row when a row alone is larger).
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
    at t = 0 (kappa = -inf) the descent lemma alone.
    """
    s = 1.0 - t
    return df - dot(g_b, dx) - 0.5 * (t * dot(dg, dg) / L - s * L * dot(dx, dx)) - s * dot(dg, dx)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the others."""
    return np.einsum("...k,...k->...", u, v)


def check_interpolable(ts: TripletSet, cls: CurvatureClass) -> float:
    """Largest violation of the interpolation inequality over all ordered pairs:
    0.0 minus the most negative slack (0.0 if none is negative), or inf if a
    slack is not a finite double, when the set is too large to check. A
    number, not a verdict, because PEP solutions carry solver noise.

    Differences are taken pairwise before any product, because expanding
    into Gram matrices cancels badly for close points far from the origin.
    Row blocks of at most ``_BLOCK_ELEMENTS`` elements are reduced to a
    running minimum. A pair (a, a) has slack +-0.0, as the entries are finite.
    """
    X, G, f = ts.X, ts.G, ts.f
    n, d = X.shape
    block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(0, n, block):
            a = slice(r, r + block)
            S = interpolation_slack(f[a, None] - f[None, :], X[a, None, :] - X[None, :, :],
                                    G[a, None, :] - G[None, :, :], G[None, :, :], cls.t, cls.L, _dot)
            if not np.isfinite(S).all():
                return np.inf
            worst = min(worst, float(S.min()))
    return 0.0 - worst


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
