"""Gradient-method runner and testbed problems.

A problem is a first-order oracle x -> (f(x), grad f(x)): one call gives
both the value and the gradient, as one oracle triplet (x, g, f) needs.
One kernel runs the method: it calls the oracle once per iterate, writes
iterates, gradients and values into stacked rows, checks each gradient's
shape as it arrives and checks finiteness once over all rows at the end.
``run_gm`` passes the rows as they are into a ``TripletSet``;
``estimate_f_star`` reads them directly, and its constant-step run stops at the
first iterate whose bytes repeat an earlier iterate's. The oracle must be a
deterministic function of the bits of x: the same bytes in, the same value and
gradient out. Testbed factories
cover a Huber-on-norm composite and an l2-regularized logistic loss with a
Lasry-Lions smoothed l0 penalty, each with honestly declared curvature
bounds; their oracles compute the shared residual, logits and penalty once
for both outputs. When every coordinate lies in the smoothed-l0 envelope's
inner quadratic, as along the logistic testbed runs from x0 = 0, the envelope
evaluates that one branch and gives the three-branch formula's exact bits.
The squared gradient norms of a run come from one batched call of the
per-row dot, bit for bit the norms of the gradients taken one at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CurvatureClass,
    DimensionMismatch,
    NumeratorKind,
    NumericalFailure,
    PositiveKappa,
    StepSchedule,
    TripletSet,
    ValidationError,
)
from .rates import StepAboveThreshold, nstep_bound


class NonFiniteValue(NumericalFailure):
    """NaN or infinity encountered along a trajectory."""


class ZeroMatrix(ValidationError):
    pass


class BadEnvelopeParams(ValidationError):
    pass


@dataclass(frozen=True)
class Trajectory:
    """Iterates of one gradient-method run and its performance measure."""

    iterates: TripletSet
    sched: StepSchedule
    min_grad_sq: float
    min_grad_index: int


@dataclass(frozen=True)
class TestProblem:
    """A differentiable objective with declared curvature bounds.

    ``oracle(x)`` returns ``(f(x), grad f(x))`` from one evaluation and
    must be a deterministic function of the bits of x, which
    ``estimate_f_star`` relies on to stop its run at a repeated iterate.
    """

    __test__ = False  # not a pytest collection target despite the name

    name: str
    oracle: Callable[[np.ndarray], tuple[float, np.ndarray]]
    cls: CurvatureClass
    x0: np.ndarray
    f_star_known: float | None = None


def _first_nonfinite(X: np.ndarray, G: np.ndarray, F: np.ndarray) -> int | None:
    """Index of the first row with a NaN or infinite x, g or f, if any."""
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(G).all(axis=1) & np.isfinite(F))
    return int(bad.argmax()) if bad.any() else None


def _gm_rows(
    tp: TestProblem, sched: StepSchedule, *, stop_at_repeat: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterates, gradients and values of x_{i+1} = x_i - (h_i / L) g_i, one row per iterate.

    The oracle gets row i of the iterate array. A gradient whose shape is
    not x's raises DimensionMismatch at once; the run stops after the first
    non-finite f, so the oracle is not called again. A non-finite gradient
    does not stop it: the later iterates are non-finite and the oracle is
    still called at each of them. Finiteness of every x, g and f is then
    checked in one pass over the rows, and the first bad iterate raises
    NonFiniteValue. Only the computed rows are returned.

    With ``stop_at_repeat``, for a constant schedule, the run also stops
    before the oracle call at the first iterate whose bytes equal an
    earlier iterate's. The step map is then the same at every step and the
    oracle a function of x's bits, so every later row would repeat a row
    already computed. Iterates are keyed by the hash of their bytes and a
    match is confirmed on the bytes, so a hash collision cannot stop the run.
    """
    x0 = np.atleast_1d(np.asarray(tp.x0, dtype=float))
    if x0.ndim != 1:
        raise DimensionMismatch(f"x0 must be a vector, got shape {x0.shape}")
    n, shape = sched.n, x0.shape
    X = np.empty((n + 1, x0.size))
    G = np.empty_like(X)
    F = np.empty(n + 1)
    X[0] = x0
    step = [h / tp.cls.L for h in sched.steps]
    seen: dict[int, int] = {}  # hash of an iterate's bytes -> its first index
    for i in range(n + 1):
        x = X[i]
        if stop_at_repeat:
            key = x.tobytes()
            j = seen.setdefault(hash(key), i)
            if j != i and X[j].tobytes() == key:
                n = i - 1
                break
        f, g = tp.oracle(x)
        F[i] = f = float(f)
        # explicit, since the row assignment would broadcast a length-1 gradient
        if getattr(g, "shape", None) != shape and np.atleast_1d(g).shape != shape:
            bad = _first_nonfinite(X[:i], G[:i], F[:i])
            if bad is not None:
                raise NonFiniteValue(f"non-finite oracle output at iterate {bad}")
            raise DimensionMismatch(f"x shape {shape} != g shape {np.atleast_1d(g).shape}")
        G[i] = g
        if not math.isfinite(f):
            n = i
            break
        if i < n:
            np.subtract(x, step[i] * G[i], out=X[i + 1])
    bad = _first_nonfinite(X[: n + 1], G[: n + 1], F[: n + 1])
    if bad is not None:
        raise NonFiniteValue(f"non-finite oracle output at iterate {bad}")
    return X[: n + 1], G[: n + 1], F[: n + 1]


def _grad_sq(G: np.ndarray) -> np.ndarray:
    # one batched call of the per-row dot: the bits of g @ g on each gradient alone
    return np.matmul(G[:, None, :], G[:, :, None]).ravel()


def run_gm(tp: TestProblem, sched: StepSchedule) -> Trajectory:
    """Run x_{i+1} = x_i - (h_i / L) g_i with one oracle call per iterate.

    The kernel's shape and finiteness checks raise DimensionMismatch and
    NonFiniteValue; its rows are the iterates' TripletSet.
    """
    X, G, F = _gm_rows(tp, sched)
    norms = _grad_sq(G)
    idx = int(np.argmin(norms))
    return Trajectory(
        iterates=TripletSet(X, G, F),
        sched=sched,
        min_grad_sq=float(norms[idx]),
        min_grad_index=idx,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    applicable: bool
    passed: bool
    worst_slack: float
    worst_index: int | None


def convex_grad_monotonicity(
    traj: Trajectory, cls: CurvatureClass, tol: float = 1e-10
) -> MonotonicityReport:
    """Quantitative gradient-norm decrease along a convex run.

    For mu = 0 and h in (0, 2) every consecutive pair must satisfy
    |g_i|^2 - |g_{i+1}|^2 >= ((2 - h)/h) |g_i - g_{i+1}|^2. For mu < 0 the
    inequality does not apply and the report says so instead of failing.
    """
    if cls.mu < 0.0:
        return MonotonicityReport(applicable=False, passed=True, worst_slack=0.0, worst_index=None)
    worst = math.inf
    worst_i = None
    G = traj.iterates.G
    for i, h in enumerate(traj.sched.steps):
        gi, gj = G[i], G[i + 1]
        slack = float(gi @ gi) - float(gj @ gj) - (2.0 - h) / h * float((gi - gj) @ (gi - gj))
        if slack < worst:
            worst, worst_i = slack, i
    return MonotonicityReport(
        applicable=True, passed=worst >= -tol, worst_slack=worst, worst_index=worst_i
    )


def _data_arrays(A, v, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A as a nonzero float matrix and v as a float vector with one entry per row of A."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"A must be a matrix, got shape {A.shape}")
    if v.shape != (A.shape[0],):
        raise DimensionMismatch(f"{name} must have shape ({A.shape[0]},), got {v.shape}")
    if not np.any(A):
        raise ZeroMatrix("A must be nonzero")
    return A, v


def make_huber_problem(
    A: np.ndarray,
    b: np.ndarray,
    delta_h: float,
    mu_reg: float = 0.0,
    x0: np.ndarray | None = None,
) -> TestProblem:
    """Huber penalty of the residual norm plus a quadratic regularizer.

    f(x) = H_delta(|Ax - b|) + (mu_reg / 2)|x|^2 with the standard Huber
    function; the declared class is (mu_reg, |A^T A| / delta_h + mu_reg). A
    negative mu_reg makes the problem hypoconvex on purpose.
    """
    A, b = _data_arrays(A, b, "b")
    for name, v in (("delta_h", delta_h), ("mu_reg", mu_reg)):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v}")
    if not delta_h > 0:
        raise ValidationError(f"delta_h must be positive, got {delta_h}")
    s = float(np.linalg.eigvalsh(A.T @ A)[-1])
    cls = CurvatureClass(mu=mu_reg, L=s / delta_h + mu_reg)  # NonPositiveL if mu_reg cancels s

    def oracle(x):
        r = A @ x - b
        nr = math.sqrt(float(r.dot(r)))
        if nr <= delta_h:
            hub = nr * nr / (2.0 * delta_h)
            g = A.T @ r / delta_h
        else:
            hub = nr - delta_h / 2.0
            g = A.T @ r / nr
        return hub + 0.5 * mu_reg * float(x @ x), g + mu_reg * x

    if x0 is None:
        x0 = np.zeros(A.shape[1])
    return TestProblem(name="huber", oracle=oracle, cls=cls, x0=np.asarray(x0, dtype=float))


def ll_envelope_l0(x: np.ndarray, lam: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Lasry-Lions smoothing of the l0 penalty, applied elementwise.

    Three branches: an inner quadratic x^2 / (2(lam - sigma)), a downward
    cap 1 - (|x| - sqrt(2 lam))^2 / (2 sigma), and the constant 1. The
    result lies in the curvature class (-1/sigma, 1/(lam - sigma)).

    When every |x_i| is at most the inner breakpoint (1 - sigma/lam) sqrt(2 lam),
    only the inner quadratic is evaluated; it gives the same bits as the
    three-branch form. Otherwise each branch is evaluated on inputs clamped
    to its own range, so the branches not selected cannot overflow.
    """
    if not (0.0 < sigma < lam):
        raise BadEnvelopeParams(f"need 0 < sigma < lambda, got sigma={sigma}, lambda={lam}")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    t = math.sqrt(2.0 * lam)
    t_inner = (1.0 - sigma / lam) * t
    inner = ax <= t_inner
    if inner.all():
        return x**2 / (2.0 * (lam - sigma)), x / (lam - sigma)
    flat = ax >= t
    x_in = np.where(inner, x, 0.0)
    d_cap = np.clip(ax, t_inner, t) - t  # |x| - t on the cap, bounded elsewhere
    val = np.where(inner, x_in**2 / (2.0 * (lam - sigma)),
                   np.where(flat, 1.0, 1.0 - d_cap**2 / (2.0 * sigma)))
    grad = np.where(inner, x_in / (lam - sigma), np.where(flat, 0.0, -np.sign(x) * d_cap / sigma))
    return val, grad


def make_logistic_l0_problem(
    A: np.ndarray,
    y: np.ndarray,
    lambda_ll: float,
    sigma_ll: float,
    reg_weight: float = 0.0,
    x0: np.ndarray | None = None,
) -> TestProblem:
    """Mean logistic loss plus a smoothed-l0 sparsity penalty.

    The loss uses the overflow-safe softplus form; the declared class is
    [-reg_weight / sigma, |A^T A| / n_data + reg_weight / (lam - sigma)],
    which needs a finite reg_weight >= 0.
    """
    if not (0.0 < sigma_ll < lambda_ll):
        raise BadEnvelopeParams(
            f"need 0 < sigma < lambda, got sigma={sigma_ll}, lambda={lambda_ll}"
        )
    if not 0.0 <= reg_weight < math.inf:
        raise ValidationError(f"reg_weight must be nonnegative and finite, got {reg_weight}")
    A, y = _data_arrays(A, y, "y")
    n_data = A.shape[0]
    L_loss = float(np.linalg.eigvalsh(A.T @ A)[-1]) / n_data
    mu = -reg_weight / sigma_ll
    L = L_loss + reg_weight / (lambda_ll - sigma_ll)
    cls = CurvatureClass(mu=mu, L=L)

    def softplus(t):
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def oracle(x):
        t = A @ x
        loss = float(np.add.reduce(softplus(t) - y * t) / n_data)
        g = A.T @ (1.0 / (1.0 + np.exp(-t)) - y) / n_data
        if reg_weight == 0.0:
            return loss, g
        val, gv = ll_envelope_l0(x, lambda_ll, sigma_ll)
        return loss + reg_weight * float(val.sum()), g + reg_weight * gv

    if x0 is None:
        x0 = np.zeros(A.shape[1])
    return TestProblem(name="logistic_l0", oracle=oracle, cls=cls, x0=np.asarray(x0, dtype=float))


def estimate_f_star(tp: TestProblem, n_iter: int = 2000) -> float:
    """Lower estimate of the minimum value by a long unit-step run.

    Refines the best observed value with the descent bound
    min_i {f_i - |g_i|^2 / (2L)}, which can only under-estimate, so
    one-sided bound comparisons built on it stay conservative. The run
    reads the kernel's rows and builds no TripletSet; the kernel's
    shape and finiteness checks are the same as ``run_gm``'s.

    ``n_iter`` caps the steps: the run stops earlier, before the oracle call,
    at the first iterate whose bytes equal an earlier iterate's. Under the
    constant unit step the map x -> x - g(x) / L is the same at every step
    and the oracle is a deterministic function of x's bits, so every later
    row would repeat a row already computed, and the minimum over the
    computed rows is bitwise the minimum over the full run.
    """
    _, G, F = _gm_rows(tp, StepSchedule.constant(1.0, n_iter), stop_at_repeat=True)
    return float((F - _grad_sq(G) / (2.0 * tp.cls.L)).min())


def load_matrix_csv(path: str) -> np.ndarray:
    """Dense float matrix from a comma-delimited file, header row optional.

    Raises ValidationError for a file with no data row, rows of unequal
    length, or a data cell that is not a finite number.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    start = 0
    try:
        [float(v) for v in (rows[0] if rows else [])]
    except ValueError:
        start = 1  # a header row
    data = rows[start:]
    if not data:
        raise ValidationError(f"{path}: no data rows")
    if len({len(row) for row in data}) != 1:
        raise ValidationError(f"{path}: rows of unequal length")
    try:
        M = np.array([[float(v) for v in row] for row in data], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(f"{path}: data row {i + 1}, column {j + 1} is not finite: {data[i][j]!r}")
    return M


def _bound_cell(cls: CurvatureClass, steps: tuple[float, ...], delta: float,
                kind: NumeratorKind) -> str:
    """The bound after ``steps`` for the value gap ``delta``, or "" where it is undefined."""
    if not delta > 0:
        return ""
    if not steps:
        return f"{2.0 * cls.L * delta:.17g}"
    try:
        return f"{nstep_bound(cls, StepSchedule(steps), delta, kind).bound:.17g}"
    except (StepAboveThreshold, PositiveKappa):  # a step above h_bar, or mu > 0
        return ""


def export_trajectory_csv(
    traj: Trajectory, tp: TestProblem, path: str, kind: NumeratorKind = NumeratorKind.gap_to_optimal
) -> None:
    """Trajectory table with the running performance measure and bound.

    The bound column uses the declared class and the steps taken so far;
    the gap is f_0 - f_star_known (gap_to_optimal) or f_0 - f_i
    (gap_to_last). Rows where the bound is undefined leave the cell empty:
    no positive gap, a step above h_bar, or mu > 0.
    """
    ts = traj.iterates
    f0 = float(ts.f[0])
    running_min = math.inf
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "h", "f", "grad_norm_sq", "min_grad_norm_sq_so_far", "bound_so_far"])
        for i, (f, gsq) in enumerate(zip(ts.f.tolist(), _grad_sq(ts.G).tolist())):
            running_min = min(running_min, gsq)
            h = traj.sched.steps[i] if i < traj.sched.n else ""
            ref = f if kind == NumeratorKind.gap_to_last else tp.f_star_known
            bound = "" if ref is None else _bound_cell(tp.cls, traj.sched.steps[:i], f0 - ref, kind)
            w.writerow([i, h, f"{f:.17g}", f"{gsq:.17g}", f"{running_min:.17g}", bound])
