"""The four seeded, closed-loop workloads of the hypopep benchmark.

Each workload turns a seed into a pass of ``pass_rounds`` rounds. A round is
a short list of items whose draws are stratified (a Latin hypercube over the
drawn parameters), so every round carries a similar mix of work and the
throughput of a run depends little on the seed. A run executes the whole
pass, repeats it while time remains, and stops at the first item boundary
after its time is up. So the set of items a run checks, and which of them
fail, depend on the seed alone.

``run(item)`` executes one item and checks its outputs. It returns normally
when every check passes, raises ``KnownDefect`` for a failure that matches a
defect documented in NOTES.md, and raises anything else for any other
failure. Failed items are counted, never dropped or re-drawn.

Calls into the program go through module attributes (``sdpsolver.solve``),
so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypopep import gmlab, pep, rates, sdpsolver, worstcase
from hypopep.core import CurvatureClass, NumeratorKind, StepSchedule

KINDS = (NumeratorKind.gap_to_last, NumeratorKind.gap_to_optimal)
REL_TOL = 1e-8  # PEP optimum against the analytic rate (measured worst: 2e-9)
KAPPA_MIN = -3.0


class CheckFailed(RuntimeError):
    """An output of the program failed a correctness check."""


class KnownDefect(CheckFailed):
    """A failure with the signature of a defect documented in NOTES.md."""


def _strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k draws in [0, 1), one per stratum [i/k, (i+1)/k), in random order."""
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def _pep_problem(kappa: float, steps: tuple[float, ...], kind: NumeratorKind):
    return pep.PepProblem(CurvatureClass(mu=kappa, L=1.0), StepSchedule(steps), 1.0, kind)


def _solve_checked(p):
    """build_sdp -> solve -> verify_solution, failing on a bad status or report."""
    sdp = pep.build_sdp(p)
    sol = sdpsolver.solve(sdp)
    if sol.status != sdpsolver.SolveStatus.Optimal:
        raise CheckFailed(f"solver status {sol.status.value} after {sol.iterations} iterations")
    rep = sdpsolver.verify_solution(sdp, sol)
    if not rep.all_pass:
        raise CheckFailed(f"verify_solution: {'; '.join(rep.failures)}")
    return sol


def reference_check(kappa: float, steps: tuple[float, ...]) -> str:
    """How a PEP optimum is compared with ``nstep_bound`` for this schedule.

    ``exact``: the rate is tight (every h <= 1, every h in [1, h_bar], or a
    constant schedule <= h_bar), so the check is two-sided. ``upper``: the
    schedule straddles h = 1 and the rate is only an upper bound. ``none``:
    some step exceeds h_bar, where no proven rate exists.
    """
    h_bar = rates.step_threshold(kappa)
    if max(steps) > h_bar:
        return "none"
    if max(steps) <= 1.0 or min(steps) >= 1.0 or len(set(steps)) == 1:
        return "exact"
    return "upper"


def _check_against_rate(p, value: float, check: str) -> None:
    if check == "none":
        return
    ref = rates.nstep_bound(p.cls, p.sched, p.delta, p.init_kind).bound
    if check == "exact" and abs(value - ref) > REL_TOL * ref:
        raise CheckFailed(f"PEP {value!r} vs rate {ref!r}: rel error {abs(value - ref) / ref:.3e}")
    if check == "upper" and value > ref * (1.0 + REL_TOL):
        raise CheckFailed(f"PEP {value!r} above the upper-bound rate {ref!r}")


class Workload:
    """What every workload shares: the seed's pass is ``pass_rounds`` rounds."""

    pass_rounds = 1

    def make_pass(self, rng) -> list[list]:
        return [self.round(rng) for _ in range(self.pass_rounds)]


@dataclass(frozen=True)
class PepItem:
    kappa: float
    steps: tuple[float, ...]
    kind: NumeratorKind


class PepDeep(Workload):
    """One N=20 PEP per item, constant step h in (0, h_bar(kappa)]."""

    name = "pep_deep"
    in_process = True
    pass_rounds = 5
    trace_rounds = 2
    N = 20

    def warmup(self):
        return PepItem(-1.0, (1.0,) * self.N, NumeratorKind.gap_to_optimal)

    def round(self, rng):
        ks, us = _strata(rng, 2), _strata(rng, 2)
        items = []
        for i in range(2):
            kappa = KAPPA_MIN * ks[i]
            h = rates.step_threshold(kappa) * (1.0 - us[i])  # in (0, h_bar]
            items.append(PepItem(kappa, (h,) * self.N, KINDS[i % 2]))
        return items

    def run(self, item: PepItem) -> None:
        p = _pep_problem(item.kappa, item.steps, item.kind)
        sol = _solve_checked(p)
        _check_against_rate(p, sol.objective, "exact")


class PepGrid(Workload):
    """Many small PEPs: N in 1..8, four schedule families, both kinds."""

    name = "pep_grid"
    in_process = True
    pass_rounds = 16
    trace_rounds = 4
    H_MAX = 1.9
    FAMILIES = ("constant", "short", "mid", "mixed")

    def _steps(self, rng, family: str, kappa: float, n: int) -> tuple[float, ...]:
        u = rng.uniform(size=n)
        if family == "constant":
            return (self.H_MAX * (1.0 - u[0]),) * n  # h in (0, 1.9]
        if family == "short":  # every h in (0, 1]
            return tuple(1.0 - u)
        if family == "mid":  # every h in [1, h_bar]
            return tuple(1.0 + (rates.step_threshold(kappa) - 1.0) * u)
        return tuple(self.H_MAX * (1.0 - u))  # anything in (0, 1.9]

    def warmup(self):
        return PepItem(-1.0, (1.0,) * 4, NumeratorKind.gap_to_optimal)

    def round(self, rng):
        ns = rng.permutation(8) + 1
        ks = _strata(rng, 8)
        items = []
        for i in range(8):
            kappa = KAPPA_MIN * ks[i]
            family = self.FAMILIES[i // 2]
            items.append(PepItem(kappa, self._steps(rng, family, kappa, int(ns[i])), KINDS[i % 2]))
        return items

    def run(self, item: PepItem) -> None:
        p = _pep_problem(item.kappa, item.steps, item.kind)
        sol = _solve_checked(p)
        check = reference_check(item.kappa, item.steps)
        try:
            pep.extract_triplets(p, sol)  # raises unless the triplets interpolate
        except pep.InterpolationFailure as exc:
            if check == "none":  # defect (c) in NOTES.md
                raise KnownDefect(f"extract_triplets beyond h_bar: {exc}") from exc
            raise
        _check_against_rate(p, sol.objective, check)


@dataclass(frozen=True)
class TightItem:
    kappa: float
    steps: tuple[float, ...]
    kind: NumeratorKind


@dataclass(frozen=True)
class TestbedItem:
    problem: str  # "huber" or "logistic"
    data_seed: int
    steps: tuple[float, ...]


class Certify(Workload):
    """No SDP: tight constructions at long horizons and testbed certificates."""

    name = "certify"
    in_process = True
    pass_rounds = 12
    trace_rounds = 2
    ROWS, COLS = 200, 40
    TESTBED_N = 50

    def warmup(self):
        return TightItem(-0.25, (0.5,) * 100, NumeratorKind.gap_to_optimal)

    def make_pass(self, rng):
        # Rounds of 4 tight items, each followed by a testbed item. The
        # tight items' (kappa, N) form one Latin hypercube over the whole
        # pass, and every round holds one N from each quarter of [10, 200].
        # So the kappa mix and the longest horizons, which set the tail,
        # barely move with the seed.
        r = self.pass_rounds
        ks = _strata(rng, 4 * r)
        n_strata = [q * r + rng.permutation(r) for q in range(4)]  # quarter q, by round
        rounds = []
        for i in range(r):
            items = []
            for t, q in enumerate(rng.permutation(4)):
                kappa = KAPPA_MIN * ks[4 * i + t]
                n = 10 + int(191 * (n_strata[q][i] + rng.uniform()) / (4 * r))  # N in [10, 200]
                steps = tuple((1.0 - rng.uniform(size=n)).tolist())  # every h in (0, 1]
                items.append(TightItem(kappa, steps, KINDS[t % 2]))
                problem = ("huber", "logistic")[t % 2]
                tb_steps = tuple(rng.uniform(0.2, 1.2, size=self.TESTBED_N).tolist())
                items.append(TestbedItem(problem, int(rng.integers(2**31)), tb_steps))
            rounds.append(items)
        return rounds

    def run(self, item) -> None:
        if isinstance(item, TightItem):
            self._run_tight(item)
        else:
            self._run_testbed(item)

    @staticmethod
    def _run_tight(item: TightItem) -> None:
        cls = CurvatureClass(mu=item.kappa, L=1.0)
        sched = StepSchedule(item.steps)
        bound = rates.nstep_bound(cls, sched, 1.0, item.kind).bound
        rep = worstcase.verify_tightness(cls, sched, 1.0, item.kind)
        if abs(rep.U**2 - bound) > 1e-12 * bound:
            raise CheckFailed(f"construction attains {rep.U**2!r}, rate is {bound!r}")
        if rep.passed:
            return
        detail = (
            f"kappa {item.kappa:.3f} N {sched.n} {item.kind.value}: iterate {rep.iterate_residual:.2e} bound {rep.bound_residual:.2e} "
            f"interp {rep.interpolation_violation:.2e} gap {rep.gap_residual:.2e}"
        )
        # The defect's signature: the sampled triplets still interpolate (the
        # function is valid) but the run drifted off the constructed iterates.
        if rep.interpolation_violation <= rep.tol:
            raise KnownDefect(detail)
        raise CheckFailed(detail)

    def make_problem(self, item: TestbedItem):
        rng = np.random.default_rng(item.data_seed)
        A = rng.standard_normal((self.ROWS, self.COLS))
        w = rng.standard_normal(self.COLS)
        if item.problem == "huber":
            b = A @ w + 0.1 * rng.standard_normal(self.ROWS)
            return gmlab.make_huber_problem(A, b, delta_h=1.0, mu_reg=-1.0)
        y = (rng.uniform(size=self.ROWS) < 1.0 / (1.0 + np.exp(-A @ w))).astype(float)
        return gmlab.make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.1)

    def _run_testbed(self, item: TestbedItem) -> None:
        tp = self.make_problem(item)
        sched = StepSchedule(item.steps)
        f_star = gmlab.estimate_f_star(tp)
        traj = gmlab.run_gm(tp, sched)
        delta = traj.iterates[0].f - f_star
        if not delta > 0:
            raise CheckFailed(f"non-positive initial gap {delta!r}")
        bound = rates.nstep_bound(tp.cls, sched, delta, NumeratorKind.gap_to_optimal).bound
        if traj.min_grad_sq > bound + 1e-9:
            raise CheckFailed(f"min |g|^2 {traj.min_grad_sq!r} above the certified {bound!r}")


@dataclass(frozen=True)
class CliItem:
    command: str  # metric suffix, e.g. "sweep_pep"
    argv: tuple[str, ...]
    check: str
    rows: int = 0  # rows a sweep must print


def _f(v: float) -> str:
    return repr(float(v))


class CliMix(Workload):
    """``python -m hypopep.cli`` one command at a time, cycling the commands."""

    name = "cli_mix"
    in_process = False
    pass_rounds = 2
    trace_rounds = 1
    COMMANDS = (
        "optstep", "rate", "tightness", "worstcase", "experiment_huber",
        "experiment_logistic", "pep", "sweep_rate", "sweep_pep", "fit_r",
    )

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def warmup(self):
        return CliItem("optstep", ("optstep", "--kappa=-1"), "keys")

    def round(self, rng):
        ks = KAPPA_MIN * _strata(rng, 5)
        us = _strata(rng, 2)
        h_rate = rates.step_threshold(ks[1]) * (1.0 - us[0])
        h_pep = rates.step_threshold(ks[3]) * (1.0 - us[1])
        wc_steps = ",".join(_f(1.0 - u) for u in rng.uniform(size=3))
        exp_seed = str(int(rng.integers(2**31)))
        w = self.workdir
        return [
            CliItem("optstep", ("optstep", f"--kappa={_f(ks[0])}"), "keys"),
            CliItem("rate", ("rate", f"--kappa={_f(ks[1])}", "--steps", _f(h_rate), "--N", "10"), "keys"),
            CliItem("tightness", ("tightness", "--kappa=-2", "--L", "2", "--delta", "2",
                                  "--steps", "1,0.5,0.75", "--kind", "opt"), "keys"),
            CliItem("worstcase", ("worstcase", f"--kappa={_f(ks[2])}", "--steps", wc_steps, "--kind", "opt",
                                  "--csv-out", str(w / "wc.csv"), "--json-out", str(w / "wc.json")), "files"),
            CliItem("experiment_huber", ("experiment", "--problem", "huber", "--steps", "1.0",
                                         "--N", "50", "--seed", exp_seed), "keys"),
            CliItem("experiment_logistic", ("experiment", "--problem", "logistic", "--steps", "1.0",
                                            "--N", "50", "--seed", exp_seed), "keys"),
            CliItem("pep", ("pep", f"--kappa={_f(ks[3])}", "--steps", _f(h_pep), "--N", "4",
                            "--emit-triplets", str(w / "triplets.json")), "pep"),
            CliItem("sweep_rate", ("sweep", "--target", "rate", f"--kappa={_f(ks[4])},{_f(ks[0])}",
                                   "--h", "0.25:0.25:1.5", "--N", "1,10,100"), "sweep", 2 * 6 * 3),
            CliItem("sweep_pep", ("sweep", "--target", "pep", "--kappa=-1,-0.5", "--h", "0.5:0.25:1.5",
                                  "--N", "1,2,3"), "sweep", 2 * 5 * 3),
            CliItem("fit_r", ("fit-r", "--kappa=-1", "--h", "1.8", "--N", "3:6"), "keys"),
        ]

    def argv(self, item: CliItem, spans_out: Path | None = None) -> list[str]:
        if spans_out is None:
            return [sys.executable, "-m", "hypopep.cli", *item.argv]
        child = str(Path(__file__).with_name("cli_child.py"))
        return [sys.executable, child, str(spans_out), *item.argv]

    def spawn(self, item: CliItem, spans_out: Path | None = None) -> tuple[int, str, str]:
        """Run one command to completion; return (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            self.argv(item, spans_out), cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err

    def run(self, item: CliItem, spans_out: Path | None = None) -> None:
        code, out, err = self.spawn(item, spans_out)
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()[-300:]}")
        CLI_CHECKS[item.check](item, out)


EXPECTED_KEYS = {
    "optstep": ("h_star", "branch", "h_bar"),
    "rate": ("p[9]", "denominator", "bound", "regime"),
    "tightness": ("U", "iterate_residual", "bound_residual", "interpolation_violation",
                  "gap_residual", "PASS"),
    "worstcase": ("U", "iterates", "values", "json", "csv"),
    "experiment": ("mu", "L", "f_star_estimate", "min_grad_sq"),
    "pep": ("optimum", "iterations", "reference", "rel_error", "triplets"),
    "fit-r": ("N=3", "N=6", "r", "slope_analytic", "slope_observed", "residuals", "used_N"),
}


def _keys(item: CliItem, out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest
    missing = [k for k in EXPECTED_KEYS[item.argv[0]] if k not in fields]
    if missing:
        raise CheckFailed(f"{item.command}: missing {missing}")
    return fields


def _check_files(item: CliItem, out: str) -> None:
    fields = _keys(item, out)
    json.loads(Path(fields["json"]).read_text())
    with open(fields["csv"], newline="") as fh:
        if next(csv.reader(fh)) != ["x", "f", "grad"]:
            raise CheckFailed("worstcase csv header")


def _check_pep(item: CliItem, out: str) -> None:
    fields = _keys(item, out)
    rel = float(fields["rel_error"])
    if not rel <= REL_TOL:
        raise CheckFailed(f"pep rel_error {rel!r}")
    json.loads(Path(fields["triplets"]).read_text())


def _check_sweep(item: CliItem, out: str) -> None:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != item.rows:
        raise CheckFailed(f"sweep printed {len(rows)} rows, expected {item.rows}")
    value = "bound" if item.argv[2] == "rate" else "optimum"
    for row in rows:
        if row.get("error") or not row.get(value):
            raise CheckFailed(f"sweep row {row}")
        if row.get("rel_error") and not float(row["rel_error"]) <= REL_TOL:
            raise CheckFailed(f"sweep rel_error {row['rel_error']}")


CLI_CHECKS = {"keys": _keys, "files": _check_files, "pep": _check_pep, "sweep": _check_sweep}


def make(name: str, root: Path, workdir: Path):
    if name == "cli_mix":
        return CliMix(root, workdir)
    return {"pep_deep": PepDeep, "pep_grid": PepGrid, "certify": Certify}[name]()


NAMES = ("pep_deep", "pep_grid", "certify", "cli_mix")
