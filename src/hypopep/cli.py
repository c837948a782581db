"""Command-line front end: every computation as a reproducible command.

Exit codes: 0 success, 2 input validation (``core.ValidationError`` or an
unreadable or unwritable file), 3 numerical failure
(``core.NumericalFailure``), 4 check failure (``core.CheckFailure``); a
command's stdout is held until it returns and written only on exit 0 and 4.
Floats are printed with 17 significant digits so output files round-trip
exactly. The numpy modules load on first use (see ``hypopep/__init__``),
so ``rate``, ``optstep`` and ``sweep --target rate`` run without numpy, and
``main`` maps an error to its code without loading a numpy module.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import sys

from . import gmlab, pep, sdpsolver, worstcase
from .core import (
    CheckFailure,
    NumeratorKind,
    NumericalFailure,
    RateRegime,
    StepSchedule,
    ValidationError,
    validate_class,
)
from .rates import (
    StepAboveThreshold,
    conjectured_bound_convex,
    fit_r,
    nstep_bound,
    optimal_step,
    step_threshold,
    third_regime_slope,
)


def _numbers(text: str, sep: str = ",", conv=float, count: int | None = None) -> list:
    """The numbers in ``text`` between the separators ``sep``, blanks skipped;
    exactly ``count`` of them when it is given."""
    try:
        values = [conv(p) for p in text.split(sep) if p.strip()]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        raise ValidationError(f"expected {count or 'some'} numbers separated by {sep!r}, "
                              f"got {text!r}")
    return values


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


MAX_RANGE_VALUES = 100_000  # most values of a range, --N, --samples or --fstar-iters
MAX_MATRIX_ENTRIES = 1_000_000  # most entries of experiment's random A and of A^T A (8 MB each)


def _count(flag: str, value: int, least: int = 0, most: int = MAX_RANGE_VALUES) -> None:
    """Refuse a count outside [least, most] by its flag, before it sizes an array."""
    if not least <= value <= most:
        rule = (f"at most {most}" if value > most
                else f"at least {least}" if least else "nonnegative")
        raise ValidationError(f"{flag} must be {rule}, got {value}")


def parse_steps(text: str) -> list[float]:
    """Parse '1,0.5,0.75' or the inclusive range syntax 'a:step:b'.

    The range holds a + k * step for k = 0, 1, ... while it is at most b,
    with a relative slack of 1e-12 on b, each rounded to 12 decimals.
    """
    if ":" in text:
        a, step, b = _numbers(text, ":", count=3)
        if not all(map(math.isfinite, (a, step, b))):
            raise ValidationError(f"--steps range must be finite, got {text!r}")
        if step <= 0:
            raise ValidationError(f"--steps range step must be positive, got {step}")
        end = b + 1e-12 * max(1.0, abs(b))
        span = (end - a) / step
        if span >= MAX_RANGE_VALUES:
            raise ValidationError(f"--steps range {text!r} has more than "
                                  f"{MAX_RANGE_VALUES} values")
        # the closed-form count, then settled on the rounded comparisons:
        # a + k * step is nondecreasing in k, so the k kept form a prefix
        count = max(0, math.floor(span) + 1)
        while count > 0 and a + (count - 1) * step > end:
            count -= 1
        while a + count * step <= end:
            count += 1
        return [round(a + k * step, 12) for k in range(count)]
    return _numbers(text)


def _schedule_from_args(args) -> StepSchedule:
    if getattr(args, "steps_file", None):
        with open(args.steps_file) as fh:
            steps = _numbers(fh.read(), "\n")
    else:
        if args.steps is None:
            raise ValidationError("--steps is required")
        steps = parse_steps(args.steps)
    n = getattr(args, "N", None)
    if n is not None:
        _count("--N", n, least=1)
        steps = steps * n if len(steps) == 1 else steps
        if len(steps) != n:
            raise ValidationError(f"--N {n} does not match {len(steps)} steps")
    return StepSchedule(tuple(steps))


def _kind(args) -> NumeratorKind:
    return NumeratorKind.gap_to_last if args.kind == "last" else NumeratorKind.gap_to_optimal


def _cls(args):
    return validate_class(args.kappa * args.L, args.L)


def cmd_rate(args) -> int:
    cls = _cls(args)
    sched = _schedule_from_args(args)
    res = nstep_bound(cls, sched, args.delta, _kind(args))
    for i, (h, p) in enumerate(zip(sched.steps, res.per_step_p)):
        print(f"p[{i}] h={_fmt(h)} p={_fmt(p)}")
    print(f"denominator {_fmt(res.denominator)}")
    print(f"bound {_fmt(res.bound)}")
    print(f"regime {res.regime.value} conjectured {res.conjectured}")
    return 0


def cmd_optstep(args) -> int:
    res = optimal_step(args.kappa, args.mode)
    print(f"h_star {_fmt(res.h_star)}")
    print(f"branch {res.branch.value}")
    print(f"h_bar {_fmt(step_threshold(args.kappa))}")
    return 0


def _reference_bound(p: pep.PepProblem):
    """Analytic or conjectured ``RateResult`` for a PEP optimum, if one exists: the rate where it
    is exact, in the regimes ``short`` and ``mid`` (a ``mixed`` schedule's rate is only an upper
    bound, and is not formed, as it could overflow where the optimum does not), or above h_bar
    the convex conjecture for a constant step at kappa = 0."""
    if RateRegime.of(p.sched.steps) == RateRegime.mixed:
        return None
    try:
        return nstep_bound(p.cls, p.sched, p.delta, p.init_kind)
    except StepAboveThreshold:
        h = p.sched.steps[0]
        if p.cls.t != 1.0 or set(p.sched.steps) != {h}:
            return None
        return conjectured_bound_convex(h, p.sched.n, p.cls.L, p.delta, p.init_kind)


def _reference(p: pep.PepProblem, sol) -> dict[str, str]:
    """The user-unit ``reference`` of a ``solve_pep`` solution, where ``_reference_bound`` has
    one, and its ``rel_error``, from the unit optimum and the unit bound 2 / D alone."""
    ref = _reference_bound(p)
    if ref is None:
        return {}
    unit = 2.0 / ref.denominator
    rel = abs(sol.linear_values[sdpsolver.OBJECTIVE] - unit) / unit
    return {"reference": _fmt(ref.bound), "rel_error": _fmt(rel)}


def cmd_pep(args) -> int:
    p = pep.PepProblem(_cls(args), _schedule_from_args(args), args.delta, _kind(args))
    sol = pep.solve_pep(p)
    ts = pep.extract_triplets(p, sol) if args.emit_triplets else None  # fails before any output
    lines = {"optimum": _fmt(sol.objective), "iterations": sol.iterations}
    lines.update(_reference(p, sol))
    print("\n".join(f"{key} {value}" for key, value in lines.items()))
    if ts is not None:
        with open(args.emit_triplets, "w") as fh:
            fh.write(ts.to_json())
        print(f"triplets {args.emit_triplets}")
    return 0


def cmd_tightness(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValidationError(f"--tol must be nonnegative and finite, got {args.tol}")
    cls = _cls(args)
    sched = _schedule_from_args(args)
    rep = worstcase.verify_tightness(cls, sched, args.delta, _kind(args), tol=args.tol)
    print(f"U {_fmt(rep.U)}")
    print(f"iterate_residual {_fmt(rep.iterate_residual)}")
    print(f"bound_residual {_fmt(rep.bound_residual)}")
    print(f"interpolation_violation {_fmt(rep.interpolation_violation)}")
    print(f"gap_residual {_fmt(rep.gap_residual)}")
    print("PASS" if rep.passed else "FAIL")
    if not rep.passed:
        raise CheckFailure("tightness verification failed")
    return 0


def cmd_worstcase(args) -> int:
    _count("--samples", args.samples)
    cls = _cls(args)
    sched = _schedule_from_args(args)
    wcf = worstcase.build_worst_case(cls, sched, args.delta, _kind(args))
    print(f"U {_fmt(wcf.U)}")
    print("iterates " + ",".join(_fmt(x) for x in wcf.xs))
    print("values " + ",".join(_fmt(f) for f in wcf.fs))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(wcf.to_json())
        print(f"json {args.json_out}")
    if args.csv_out:
        wcf.sample_csv(args.csv_out, num=args.samples)
        print(f"csv {args.csv_out}")
    return 0


def cmd_experiment(args) -> int:
    import numpy as np

    if min(args.rows, args.cols) < 1 or args.seed < 0:
        raise ValidationError("--rows and --cols must be at least 1 and --seed nonnegative")
    _count("--fstar-iters", args.fstar_iters, least=1)
    _count("the larger of --rows x --cols and --cols x --cols",
           max(args.rows, args.cols) * args.cols, most=MAX_MATRIX_ENTRIES)
    sched = _schedule_from_args(args)
    rng = np.random.default_rng(args.seed)
    if args.data_a:
        A = gmlab.load_matrix_csv(args.data_a)
    else:
        A = rng.standard_normal((args.rows, args.cols))
    if args.problem == "huber":
        if args.data_b:
            b = gmlab.load_matrix_csv(args.data_b).ravel()
        else:
            b = A @ rng.standard_normal(A.shape[1]) + 0.1 * rng.standard_normal(A.shape[0])
        tp = gmlab.make_huber_problem(A, b, args.delta_h, args.mu_reg)
    else:
        if args.data_y:
            y = gmlab.load_matrix_csv(args.data_y).ravel()
        else:
            logits = A @ rng.standard_normal(A.shape[1])
            y = (rng.uniform(size=A.shape[0]) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        tp = gmlab.make_logistic_l0_problem(A, y, args.lambda_ll, args.sigma_ll, args.reg_weight)
    f_star = gmlab.estimate_f_star(tp, n_iter=args.fstar_iters)
    tp = dataclasses.replace(tp, f_star_known=f_star)
    traj = gmlab.run_gm(tp, sched)
    print(f"mu {_fmt(tp.cls.mu)}")
    print(f"L {_fmt(tp.cls.L)}")
    print(f"f_star_estimate {_fmt(f_star)}")
    print(f"min_grad_sq {_fmt(traj.min_grad_sq)} at {traj.min_grad_index}")
    if args.out:
        gmlab.export_trajectory_csv(traj, tp, args.out)
        print(f"csv {args.out}")
    return 0


SWEEP_COLUMNS = {
    "rate": ("kappa", "h", "N", "bound", "denominator", "error"),
    "pep": ("kappa", "h", "N", "optimum", "reference", "rel_error", "error"),
}


def _sweep_point(target, kappa, h, n, L, delta, kind):
    row = dict.fromkeys(SWEEP_COLUMNS[target], "")
    row.update(kappa=_fmt(kappa), h=_fmt(h), N=str(n))
    try:
        cls = validate_class(kappa * L, L)
        sched = StepSchedule.constant(h, n)
        if target == "rate":
            res = nstep_bound(cls, sched, delta, kind)
            row.update(bound=_fmt(res.bound), denominator=_fmt(res.denominator))
        else:
            p = pep.PepProblem(cls, sched, delta, kind)
            sol = pep.solve_pep(p)
            row.update(optimum=_fmt(sol.objective), **_reference(p, sol))
    # per-point failures go to the error column; anything else is a bug
    except (ValidationError, NumericalFailure) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    kappas = _numbers(args.kappa)
    hs = parse_steps(args.h)
    ns = _numbers(args.N, conv=int)
    _count("--N", max(ns), least=-math.inf)  # N < 1 is a failed point, in its row
    kind = _kind(args)
    grid = [(k, h, n) for k in kappas for h in hs for n in ns]
    rows = [_sweep_point(args.target, k, h, n, args.L, args.delta, kind) for k, h, n in grid]
    if args.format == "json":
        payload = json.dumps(rows, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            print(payload)
    else:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            w = csv.writer(out)
            w.writerow(SWEEP_COLUMNS[args.target])
            w.writerows(row.values() for row in rows)
        finally:
            if args.out:
                out.close()
    if args.out:
        print(f"rows {len(rows)} -> {args.out}")
    return 0


def cmd_fit_r(args) -> int:
    lo, hi = _numbers(args.N, ":", int, count=2)
    cls = _cls(args)
    kind = _kind(args)
    problem = lambda n: pep.PepProblem(cls, StepSchedule.constant(args.h, n), args.delta, kind)
    _count("--N", hi, least=-math.inf)
    sdpsolver.check_gram_dim(problem(hi).gram_dim)  # the largest PEP, before the first solve
    third_regime_slope(cls, args.h)  # StepOutOfRange unless h_bar < h < 2, also before it
    values = []
    for n in range(lo, hi + 1):
        sol = pep.solve_pep(problem(n))
        values.append((n, sol.linear_values[sdpsolver.OBJECTIVE]))
        print(f"N={n} optimum {_fmt(sol.objective)}")
    res = fit_r(cls, args.h, values, kind)
    print(f"r {_fmt(res.r)}")
    print(f"slope_analytic {_fmt(res.slope_analytic)}")
    print(f"slope_observed {_fmt(res.slope_observed)}")
    print("residuals " + ",".join(_fmt(v) for v in res.residuals))
    print("used_N " + ",".join(str(n) for n in res.used_n))
    return 0


def _add_common(p, steps=True, kind_default="opt"):
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    if steps:
        p.add_argument("--steps", type=str, default=None)
        p.add_argument("--steps-file", type=str, default=None)
        p.add_argument("--N", type=int, default=None)
    p.add_argument("--kind", choices=["last", "opt"], default=kind_default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypopep")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="closed-form worst-case bound for a schedule")
    _add_common(p, kind_default="last")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("optstep", help="optimal constant step size")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--mode", choices=["theorem", "asymptotic"], default="theorem")
    p.set_defaults(func=cmd_optstep)

    p = sub.add_parser("pep", help="solve the discretized worst-case SDP")
    _add_common(p)
    p.add_argument("--emit-triplets", type=str, default=None)
    p.set_defaults(func=cmd_pep)

    p = sub.add_parser("tightness", help="verify bound attainment (short steps)")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("worstcase", help="build and export the tight instance")
    _add_common(p)
    p.add_argument("--csv-out", type=str, default=None)
    p.add_argument("--json-out", type=str, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.set_defaults(func=cmd_worstcase)

    p = sub.add_parser("experiment", help="run a testbed problem")
    p.add_argument("--problem", choices=["huber", "logistic"], required=True)
    p.add_argument("--data-a", type=str, default=None)
    p.add_argument("--data-b", type=str, default=None)
    p.add_argument("--data-y", type=str, default=None)
    p.add_argument("--rows", type=int, default=40)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-h", type=float, default=1.0)
    p.add_argument("--mu-reg", type=float, default=0.0)
    p.add_argument("--lambda-ll", type=float, default=2.0)
    p.add_argument("--sigma-ll", type=float, default=1.0)
    p.add_argument("--reg-weight", type=float, default=0.1)
    p.add_argument("--fstar-iters", type=int, default=2000)
    p.add_argument("--steps", type=str, default=None)
    p.add_argument("--steps-file", type=str, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="fan a command across a parameter grid")
    p.add_argument("--target", choices=["rate", "pep"], required=True)
    p.add_argument("--kappa", type=str, required=True)
    p.add_argument("--h", type=str, required=True)
    p.add_argument("--N", type=str, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--kind", choices=["last", "opt"], default="opt")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit-r", help="fit the third-regime intercept from PEP optima")
    _add_common(p, steps=False)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--N", type=str, required=True, help="range lo:hi inclusive")
    p.set_defaults(func=cmd_fit_r)
    return ap


def _negative_value(token: str) -> bool:
    """Whether ``token`` is a negative value rather than a flag: it starts with '-' and its
    first ','- or ':'-separated field is a float, as in '-1', '-inf', '-.5' or '-1,-0.5'."""
    try:
        float(re.split("[,:]", token, maxsplit=1)[0])
    except ValueError:
        return False
    return token.startswith("-")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -1,-0.5' into '--flag=-1,-0.5' so argparse accepts it."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _negative_value(tok):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    held, error = io.StringIO(), ""
    try:
        with contextlib.redirect_stdout(held):
            code = args.func(args)
    except (ValidationError, OSError, NumericalFailure, CheckFailure) as exc:
        # 2 bad input (a value, or a file to read or write), 3 a numerical failure, 4 a failed check
        code = 4 if isinstance(exc, CheckFailure) else 3 if isinstance(exc, NumericalFailure) else 2
        error = f"error: {type(exc).__name__}: {exc}\n"
    if code in (0, 4):  # a complete answer, or the report that is the failed check's diagnostic
        sys.stdout.write(held.getvalue())
    sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
