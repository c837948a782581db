"""hypopep benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --trace both

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-module
metrics of a separate traced run, ``both`` does one and then the other.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Metric names and units are read from BENCHMARK.json. See
perfbench/NOTES.md for the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import os

# One BLAS thread: with the CLI's 2-thread sweep pool no run uses more
# than 2 threads on the 2-core reference machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("pep_deep", "pep_grid", "certify", "cli_mix")
SETUP_PROBES = 5
IMPORT_PROBES = 3
# ROADMAP item 1: iterations at kappa=-1, h=1, gap-to-optimal, by N.
ROADMAP_ITERATIONS = {1: 9, 8: 11, 12: 14, 16: 15, 20: 17}


@dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "defect" (a defect documented in NOTES.md) or "fail"
    detail: str = ""
    item: int = 0  # index of the item in the seed's pass


class Setup:
    """Imports, seeded input generation and one untimed warm-up item.

    The seed gives the workload's pass: ``pass_rounds`` rounds of items,
    all generated here. The warm-up item is fixed per workload, so set-up
    time does not depend on the seed.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        import workloads

        self.wl = workloads.make(name, ROOT, workdir)
        rng = np.random.default_rng(seed)
        self.rounds = self.wl.make_pass(rng)
        self.warmup = run_item(self.wl, self.wl.warmup(), workdir)


def run_item(wl, item, workdir: Path, tracer=None, index: int = 0) -> Outcome:
    """Run and check one item; failures are classified, never raised."""
    from workloads import KnownDefect

    spans_out = None
    if tracer is not None and not wl.in_process:
        spans_out = workdir / "child_spans.json"
        span = tracer.open(f"cli.{item.command}")
    start = time.perf_counter()
    try:
        wl.run(item, spans_out) if spans_out else wl.run(item)
        status, detail = "ok", ""
    except KnownDefect as exc:
        status, detail = "defect", str(exc)
    except Exception as exc:  # every other failure is counted and reported
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if spans_out is not None:
        tracer.close(span)
        if spans_out.exists():
            tracer.add_child(json.loads(spans_out.read_text()))
            spans_out.unlink()
    return Outcome(seconds, status, detail, index)


def run_timed(setup: Setup, seconds: float, workdir: Path, clock=None) -> tuple[list[Outcome], list[float], float]:
    """Closed loop over the pass, repeating it while time remains.

    Stops at the first item boundary after ``seconds`` once the whole pass
    has run, so every item of the pass is executed and checked at least once.
    Between items the host clock, if given, takes its calibration samples.
    Returns the outcomes, each item's host-to-reference factor (1 without a
    clock) and the timed wall time without the calibration.
    """
    items = [it for rnd in setup.rounds for it in rnd]
    outcomes, ks = [], []
    start = time.perf_counter()
    while True:
        ks.append(clock.tick() if clock else 0)
        i = len(outcomes) % len(items)
        outcomes.append(run_item(setup.wl, items[i], workdir, index=i))
        if len(outcomes) >= len(items) and time.perf_counter() - start >= seconds:
            wall = time.perf_counter() - start
            if clock is None:
                return outcomes, [1.0] * len(outcomes), wall
            wall -= sum(clock.samples[1:])  # samples[0] was taken before the start
            clock.sample()
            return outcomes, [clock.scale(k) for k in ks], wall


def by_item(outcomes: list[Outcome]) -> tuple[list[Outcome], list[str]]:
    """One outcome per distinct item, and the items whose outcome changed between executions.

    A repeated item must end the same way each time: the program is
    deterministic, so a change is reported as a failure of its own.
    """
    first: dict[int, Outcome] = {}
    changed = []
    for o in outcomes:
        seen = first.setdefault(o.item, o)
        if seen.status != o.status and o.item not in changed:
            changed.append(o.item)
    msgs = [f"item {i} ended {first[i].status} once and differently when repeated" for i in changed]
    return [first[i] for i in sorted(first)], msgs


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 items beyond it: (value, percentile)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


def peak_rss_mb(in_process: bool) -> float:
    """Peak RSS of this process, or of the largest child for CLI workloads."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_process_seconds(argv: list[str], env: dict | None = None) -> float:
    start = time.perf_counter()
    res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if res.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {res.returncode}: {res.stderr.strip()[-300:]}")
    return elapsed


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of start-up to the first timed item."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    return statistics.median(fresh_process_seconds(argv) for _ in range(SETUP_PROBES))


def cli_import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports hypopep.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import hypopep.cli"]
    return statistics.median(fresh_process_seconds(argv, env) for _ in range(IMPORT_PROBES))


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics.

    For in-process workloads the item times are scaled to the reference
    host speed (hostspeed.py). ``cli_mix`` items run in child processes,
    which a calibration in this process does not time, so they stay raw.
    """
    from hostspeed import HostClock

    setup = Setup(name, seed, workdir)
    clock = HostClock() if setup.wl.in_process else None
    outcomes, scales, wall = run_timed(setup, seconds, workdir, clock)
    rss = peak_rss_mb(setup.wl.in_process)
    raw = [o.seconds for o in outcomes]
    times = [t * f for t, f in zip(raw, scales)]
    tail_s, tail_pct = tail(times)
    passed = sum(o.status == "ok" for o in outcomes)
    distinct, changed = by_item(outcomes)
    metrics = {
        "setup_s": setup_seconds(name, seed),
        "items_per_s": passed / sum(times),
        "item_s.p50": statistics.median(times),
        "item_s.tail": tail_s,
        "error_rate": sum(o.status != "ok" for o in distinct) / len(distinct),
        "peak_rss_mb": rss,
    }
    notes = {
        "pass_items": len(distinct),
        "timed_items": len(outcomes),
        "passes": len(outcomes) / len(distinct),
        "timed_wall_s": wall,
        "tail_percentile": tail_pct,
        "known_defect_items": sum(o.status == "defect" for o in distinct),
    }
    if clock is not None:
        notes.update({
            "host_speed": clock.speed(),
            "host_samples": len(clock.samples),
            "raw.items_per_s": passed / wall,
            "raw.item_s.p50": statistics.median(raw),
            "raw.item_s.tail": tail(raw)[0],
        })
    return {"outcomes": distinct, "warmup": setup.warmup, "metrics": metrics, "notes": notes,
            "extra_failures": changed}


def roadmap_iterations() -> dict[int, int]:
    from hypopep import pep, sdpsolver
    from hypopep.core import CurvatureClass, NumeratorKind, StepSchedule

    out = {}
    for n in ROADMAP_ITERATIONS:
        p = pep.PepProblem(CurvatureClass(mu=-1.0, L=1.0), StepSchedule.constant(1.0, n), 1.0,
                           NumeratorKind.gap_to_optimal)
        out[n] = sdpsolver.solve(pep.build_sdp(p)).iterations
    return out


def per_layer_metrics(summary: dict) -> dict[str, float]:
    sp, c = summary["spans"], summary["counts"]

    def self_s(name):
        r = sp.get(name)
        return r["self_s"] / r["calls"] if r else 0.0

    def total_s(name):
        r = sp.get(name)
        return r["total_s"] / r["calls"] if r else 0.0

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    def frac(num, den_calls):
        return c.get(num, 0) / den_calls if den_calls else 0.0

    iterations = c.get("sdpsolver.iterations", 0)
    solve_self = sp.get("sdpsolver.solve", {}).get("self_s", 0.0)
    m = {
        "sdpsolver.solve_s": self_s("sdpsolver.solve"),
        "sdpsolver.iteration_s": solve_self / iterations if iterations else 0.0,
        "sdpsolver.iterations": iterations,
        "sdpsolver.solves": calls("sdpsolver.solve"),
        "sdpsolver.smat_calls": c.get("sdpsolver.smat_calls", 0),
        "sdpsolver.svec_calls": c.get("sdpsolver.svec_calls", 0),
        "sdpsolver.schur_flops": c.get("sdpsolver.schur_flops", 0),
        "sdpsolver.schur_bytes": c.get("sdpsolver.schur_bytes", 0),
        "sdpsolver.verify_solution_s": self_s("sdpsolver.verify_solution"),
        "sdpsolver.optimal_frac": frac("sdpsolver.optimal", calls("sdpsolver.solve")),
        "sdpsolver.verified_frac": frac("sdpsolver.verified", calls("sdpsolver.verify_solution")),
        "pep.build_sdp_s": self_s("pep.build_sdp"),
        "pep.rows": c.get("pep.rows", 0),
        "pep.extract_triplets_s": self_s("pep.extract_triplets"),
        "pep.extract_triplets.total_s": total_s("pep.extract_triplets"),
        "interpolation.check_interpolable_s": self_s("interpolation.check_interpolable"),
        "interpolation.pairs": c.get("interpolation.pairs", 0),
        "worstcase.verify_tightness_s": self_s("worstcase.verify_tightness"),
        "worstcase.verify_tightness.total_s": total_s("worstcase.verify_tightness"),
        "worstcase.build_worst_case_s": self_s("worstcase.build_worst_case"),
        "worstcase.passed_frac": frac("worstcase.passed", calls("worstcase.verify_tightness")),
        "gmlab.run_gm_s": self_s("gmlab.run_gm"),
        "gmlab.oracle_calls": c.get("gmlab.oracle_calls", 0),
        "gmlab.estimate_f_star_s": self_s("gmlab.estimate_f_star"),
        "gmlab.estimate_f_star.total_s": total_s("gmlab.estimate_f_star"),
        "rates.nstep_bound_s": self_s("rates.nstep_bound"),
        "rates.calls": c.get("rates.calls", 0) + calls("rates.nstep_bound"),
    }
    from workloads import CliMix

    for command in CliMix.COMMANDS:
        m[f"cli.{command}_s"] = self_s(f"cli.{command}")
    return m


def traced(name: str, seed: int, workdir: Path) -> dict:
    """Each item of the first rounds of the seed's pass run untraced and traced.

    The two runs of an item follow each other, in alternating order, so
    both see the same host speed; ``trace.overhead_frac`` compares their
    summed times. Counts are totals over a fixed item list, so they repeat
    exactly for a given seed.
    """
    from spans import Tracer

    setup = Setup(name, seed, workdir)
    items = [it for rnd in setup.rounds[:setup.wl.trace_rounds] for it in rnd]
    tracer = Tracer()
    plain, outcomes = [], []
    for i, item in enumerate(items):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_item(setup.wl, item, workdir, index=i))
                continue
            tracer.item = i
            tracer.install()
            try:
                outcomes.append(run_item(setup.wl, item, workdir, tracer, i))
            finally:
                tracer.uninstall()
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in outcomes)
    metrics = per_layer_metrics(tracer.summary())
    metrics["cli.import_s"] = cli_import_seconds()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    iters = roadmap_iterations()
    for n, it in iters.items():
        metrics[f"sdpsolver.roadmap_iterations.N{n}"] = it
    mismatched = [o for o, p in zip(outcomes, plain) if o.status != p.status]
    extra_failures = []
    if mismatched:
        extra_failures.append("traced and untraced passes disagree on item outcomes")
    if iters != ROADMAP_ITERATIONS:
        extra_failures.append(f"ROADMAP iterations {iters} != {ROADMAP_ITERATIONS}")
    notes = {"items": len(items), "untraced_item_s_sum": plain_s, "traced_item_s_sum": traced_s}
    return {"outcomes": outcomes, "warmup": setup.warmup, "metrics": metrics, "notes": notes,
            "extra_failures": extra_failures}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(name: str, seed: int, trace: bool, res: dict, spec: dict) -> dict:
    """Print every metric with its unit and return the result object."""
    from machine import provenance

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = res["metrics"]
    if not trace:
        units["error_rate"] = "ratio"  # printed here; the result line carries failed/attempted
    if set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    outcomes = res["outcomes"]
    failed = [o for o in outcomes if o.status != "ok"]
    unexpected = [o for o in failed if o.status == "fail"]
    if res["warmup"].status != "ok":
        unexpected.append(res["warmup"])
    unexpected_msgs = [o.detail for o in unexpected] + res.get("extra_failures", [])
    print(f"# hypopep benchmark: workload {name}, seed {seed}, {'traced' if trace else 'untraced'} run")
    print("provenance " + json.dumps(provenance(ROOT, name, seed)))
    for key, value in res["notes"].items():
        print(f"note {key} {value}")
    for key in sorted(metrics):
        print(f"metric {key} {metrics[key]!r} {units[key]}")
    for o in failed:
        print(f"{'known-defect' if o.status == 'defect' else 'FAILED'} item: {o.detail}")
    for msg in res.get("extra_failures", []):
        print(f"FAILED check: {msg}")
    return {
        "correct": not unexpected_msgs,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k != "error_rate"},
    }


@contextmanager
def work_dir():
    """A scratch directory inside the checkout for CLI outputs, removed afterwards."""
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    with work_dir() as workdir:
        res = traced(name, seed, workdir) if trace else end_to_end(name, seed, seconds, workdir)
        return report(name, seed, trace, res, spec)


def run_all(names, args) -> dict:
    """Each workload and mode in its own process; returns the combined result."""
    modes = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for mode in modes:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(mode)]
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = res.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if res.returncode != 0 or not lines:
                raise SystemExit(f"{name} --trace {mode} exited {res.returncode}: {res.stderr[-500:]}")
            one = json.loads(lines[-1])
            combined["correct"] &= one["correct"]
            combined["attempted"] += one["attempted"]
            combined["failed"] += one["failed"]
            for key, val in one["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = val
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of an untraced run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "hypopep" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no hypopep sources under {SRC} or no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypopep

    if Path(hypopep.__file__).resolve().parent != SRC / "hypopep":
        print(f"error: imported hypopep from {hypopep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    if args.setup_probe:
        with work_dir() as workdir:
            Setup(args.workload, args.seed, workdir)
        return 0
    if args.workload == "all" or args.trace == "both":
        result = run_all(NAMES if args.workload == "all" else (args.workload,), args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
