"""Span recording around the public functions of the hypopep modules.

The tracer replaces module attributes with thin wrappers, wherever callers
look the name up: the package imports with ``from .x import y``, so
``worstcase.check_interpolable`` is replaced as well as
``interpolation.check_interpolable``. Wrappers never alter arguments or
results, and ``Tracer.uninstall`` restores every replaced name.

A span is (name, start, end, parent, item). Self time is a span's duration
minus the time covered by its child spans. Counting wrappers record calls
without a span, for helpers called thousands of times per solve.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

# Layer metrics computed from function results, so the benchmark records
# the counts at the layer boundary where the work happens.


def _on_solve(tr, args, kwargs, sol):
    problem = args[0]
    n = problem.gram_dim
    m = len(problem.constraints)
    sd = n * (n + 1) // 2
    nv = sd + len(problem.var_names)
    it = sol.iterations
    tr.count("sdpsolver.iterations", it)
    tr.count("sdpsolver.optimal", sol.status.value == "Optimal")
    # Schur assembly per iteration, computed from the problem shape (not
    # measured): nv columns of W^-1 V W^-1 (two n^3 products each), the
    # product Gmat^T T and the Cholesky factor of the nv x nv system.
    flops = nv * 4 * n**3 + 2 * nv * nv * (m + sd) + nv**3 // 3
    # Bytes of the dense arrays read or written: Gmat twice, T once, M once.
    nbytes = 8 * (3 * (m + sd) * nv + nv * nv)
    tr.count("sdpsolver.schur_flops", it * flops)
    tr.count("sdpsolver.schur_bytes", it * nbytes)


def _on_verify_solution(tr, args, kwargs, rep):
    tr.count("sdpsolver.verified", bool(rep.all_pass))


def _on_build_sdp(tr, args, kwargs, sdp):
    tr.count("pep.rows", len(sdp.constraints))


def _on_check_interpolable(tr, args, kwargs, rep):
    n = len(args[0])
    tr.count("interpolation.pairs", n * (n - 1))


def _on_verify_tightness(tr, args, kwargs, rep):
    tr.count("worstcase.passed", bool(rep.passed))


def _on_run_gm(tr, args, kwargs, traj):
    tr.count("gmlab.oracle_calls", len(traj.iterates))


# (module, function, result hook) for every span the benchmark records.
SPANNED = (
    ("sdpsolver", "solve", _on_solve),
    ("sdpsolver", "verify_solution", _on_verify_solution),
    ("pep", "build_sdp", _on_build_sdp),
    ("pep", "extract_triplets", None),
    ("interpolation", "check_interpolable", _on_check_interpolable),
    ("worstcase", "build_worst_case", None),
    ("worstcase", "verify_tightness", _on_verify_tightness),
    ("gmlab", "run_gm", _on_run_gm),
    ("gmlab", "estimate_f_star", None),
    ("rates", "nstep_bound", None),
)

# (module, function, counter) for call counts without a span.
COUNTED = (
    ("sdpsolver", "smat", "sdpsolver.smat_calls"),
    ("sdpsolver", "svec", "sdpsolver.svec_calls"),
    ("rates", "step_threshold", "rates.calls"),
    ("rates", "one_step_p", "rates.calls"),
    ("rates", "optimal_step", "rates.calls"),
    ("rates", "fit_r", "rates.calls"),
)


class Tracer:
    """In-memory spans and counters; thread-safe for the CLI's sweep pool."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._children: list[dict] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _span_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter, fn):
        def wrapper(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, module_name: str, attr: str, make) -> None:
        home = sys.modules[f"hypopep.{module_name}"]
        original = getattr(home, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypopep" or mod_name.startswith("hypopep.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every function in SPANNED and COUNTED in all hypopep modules."""
        import hypopep.cli  # noqa: F401  (so its imported names are replaced too)

        for mod, attr, hook in SPANNED:
            self._replace(mod, attr, lambda fn, n=f"{mod}.{attr}", h=hook: self._span_wrapper(n, fn, h))
        for mod, attr, counter in COUNTED:
            self._replace(mod, attr, lambda fn, c=counter: self._count_wrapper(c, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def add_child(self, summary: dict) -> None:
        """Include the summary a traced child process wrote (see cli_child.py)."""
        self._children.append(summary)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Child-process summaries are added by name; their spans have no
        parent in this process.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        counts = Counter(self.counts)
        for child in self._children:
            for name, rec in child["spans"].items():
                dst = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for k in dst:
                    dst[k] += rec[k]
            counts.update(child["counts"])
        return {"spans": out, "counts": dict(counts)}
