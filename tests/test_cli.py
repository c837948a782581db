import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hypopep import cli, pep, sdpsolver, worstcase
from hypopep.cli import main, parse_steps
from hypopep.core import NumeratorKind, StepSchedule, TripletSet, validate_class
from hypopep.interpolation import check_interpolable
from hypopep.pep import IndefiniteGram, InterpolationFailure, PepProblem, build_sdp
from hypopep.rates import nstep_bound, step_threshold
from hypopep.sdpsolver import VerificationReport, solve


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def grab(text, key):
    for line in text.splitlines():
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise KeyError(key)


def test_parse_steps():
    assert parse_steps("1,0.5,0.75") == [1.0, 0.5, 0.75]
    assert parse_steps("0.1:0.1:1.5") == [round(0.1 * k, 12) for k in range(1, 16)]


def test_rate_command(capsys):
    rc, out, _ = run(capsys, "rate", "--kappa", "-1", "--L", "1", "--delta", "1",
                     "--steps", "1", "--kind", "opt")
    assert rc == 0
    assert abs(float(grab(out, "bound")) - 0.8) < 1e-15


def test_rate_convex_two_steps(capsys):
    rc, out, _ = run(capsys, "rate", "--kappa", "0", "--steps", "1,1", "--kind", "opt")
    assert rc == 0
    assert abs(float(grab(out, "bound")) - 0.4) < 1e-15


def test_rate_validation_exit_code(capsys):
    rc, _, err = run(capsys, "rate", "--kappa", "-1", "--steps", "1.9")
    assert rc == 2
    assert "StepAboveThreshold" in err


def test_rate_overflow_exit_code(capsys):
    # a subnormal step sum makes 2 L delta / D overflow a double
    rc, out, err = run(capsys, "rate", "--kappa", "-1", "--steps", "1e-310", "--kind", "last")
    assert rc == 2
    assert "ScaleOverflow" in err and "bound" not in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pep_extreme_kappa_and_L_solve(capsys, tmp_path):
    # the rows are written at unit scale in t = 1 / (1 - kappa), so no
    # coefficient overflows: 2 (1 - kappa) would at kappa = -1.7e308,
    # mu |x_i - x_j|^2 at -8e307 with h = 1.5 and (h / L)^2 at L = 1e-300
    for argv in (("pep", "--kappa=-1.7e308", "--steps", "1"),
                 ("pep", "--kappa=-8e307", "--steps", "1.5"),
                 ("pep", "--kappa=-1", "--L=1e-300", "--steps", "1.9")):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "", (argv, err)
        optima = [float(line.split()[-1]) for line in out.splitlines() if "optimum" in line]
        assert optima and all(math.isfinite(v) and v > 0.0 for v in optima), (argv, out)
    # h_bar rounds to 2 there, so no step is in the third regime that fit-r fits
    rc, out, err = run(capsys, "fit-r", "--kappa=-1.7e308", "--h", "1", "--N", "1:2")
    assert rc == 2 and out == "" and err.startswith("error: StepOutOfRange: "), (out, err)
    out = tmp_path / "k.csv"
    rc, _, _ = run(capsys, "sweep", "--target", "pep", "--kappa=-1.7e308,-1", "--h", "1",
                   "--N", "1", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == "" and math.isfinite(float(row["optimum"])), row
    # the closed forms accept every finite kappa, so a reference is printed
    for kappa in ("-1e9", "-1e12", "-8e307"):
        rc, out, _ = run(capsys, "pep", f"--kappa={kappa}", "--steps", "1", "--N", "3")
        assert rc == 0 and math.isfinite(float(grab(out, "optimum")))
        assert float(grab(out, "rel_error")) <= 1e-8, (kappa, out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("--L=1e200", "--delta=1e200"),  # the optimum, L delta = 1e400 times the unit one
    ("--L=1e-308", "--delta=1e308", "--emit-triplets", "t.json"),  # iterates, sqrt(delta / L)
])
def test_pep_answer_beyond_double_exit_code(capsys, tmp_path, monkeypatch, argv):
    # the unit-scale solve is fine; its answer in user units is not a finite
    # double, so nothing is printed or written
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, "pep", "--kappa=-1", *argv, "--steps", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: ScaleOverflow: "), err
    assert list(tmp_path.iterdir()) == []


def printed_numbers(out):
    """Every token of a command's output that parses as a float."""
    numbers = []
    for token in re.split(r"[\s=,]+", out):
        with contextlib.suppress(ValueError):
            numbers.append(float(token))
    return numbers


_FAR = ("--L=1e200", "--delta=1e108")  # L delta = 1e308: 2 L delta overflows, L delta does not
_TINY = ("--L=1e-300", "--delta=1e-300")  # L delta = 1e-600 underflows to 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("code, argv", [
    (0, ("rate", "--kappa=-1", "--steps", "1", "--N", "10", *_FAR)),
    (0, ("pep", "--kappa=-1", "--steps", "1", "--N", "3", *_FAR)),
    (0, ("pep", "--kappa=0", "--steps", "1.8", "--N", "3", *_FAR)),  # the conjectured reference
    (0, ("fit-r", "--kappa=-1", "--h", "1.8", "--N", "3:6", *_FAR)),
    (2, ("pep", "--kappa=-1", "--steps", "1", *_TINY)),
    (0, ("sweep", "--target", "pep", "--kappa=-1", "--h", "1", "--N", "1", *_TINY)),
    (2, ("rate", "--kappa=-1", "--steps", "1", *_TINY)),
    (2, ("worstcase", "--kappa=-1", "--steps", "1", *_TINY)),
    # x_0 = 3.5 sqrt(delta / L) times the unit one overflows, though U does not
    (2, ("worstcase", "--kappa=-1", "--steps", "0.5", "--N", "6", "--L=1e-308", "--delta=1e308",
         "--json-out", "w.json")),
    # L delta = 1e-320: the answers would be subnormal, with 3 of their 17 digits
    (2, ("pep", "--kappa=-1", "--steps", "1", "--L=1e-160", "--delta=1e-160")),
    (2, ("rate", "--kappa=-1", "--steps", "1", "--L=1e-160", "--delta=1e-160")),
])
def test_answers_far_from_unit_scale(capsys, tmp_path, monkeypatch, code, argv):
    # every answer leaves unit scale through one check: a finite answer is
    # printed whole, and one beyond a double (or 0 or subnormal where the unit
    # one is not) exits 2 before any output; a sweep puts it in the point's
    # error column
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    if code == 2:
        assert rc == 2 and out == "", (rc, out)
        assert err.startswith("error: ScaleOverflow: "), err
        assert list(tmp_path.iterdir()) == []
        return
    assert rc == 0 and err == "", err
    assert all(math.isfinite(v) for v in printed_numbers(out)), out
    if argv[0] == "pep":
        assert float(grab(out, "rel_error")) <= 1e-8, out
    if argv[0] == "fit-r":  # the fit reads only ratios of optima: r is the unit one
        assert grab(out, "r") == grab(run(capsys, *argv[:-2])[1], "r")
    if argv[0] == "sweep":
        assert list(csv.DictReader(io.StringIO(out)))[0]["error"].startswith("ScaleOverflow: ")


def check_emitted_triplets(path, steps, L, delta, kappa=-1.0):
    """The triplets pep --emit-triplets wrote: finite, on the step recursion
    x_{i+1} = x_i - (h_i / L) g_i, and interpolable at unit scale. Returns
    the largest |x| over sqrt(delta / L), the iterates' unit-scale size."""
    rows = json.loads(Path(path).read_text())["triplets"]
    X, G, f = (np.array([t[k] for t in rows], dtype=float) for k in ("x", "g", "f"))
    assert np.isfinite(X).all() and np.isfinite(G).all() and np.isfinite(f).all()
    size = np.abs(X).max()
    for i, h in enumerate(steps):
        assert np.abs(X[i + 1] - (X[i] - h / L * G[i])).max() <= 1e-14 * size, (i, X, G)
    sx, sg = math.sqrt(delta) / math.sqrt(L), math.sqrt(L) * math.sqrt(delta)
    unit = TripletSet(X / sx, G / sg, f / delta)
    assert check_interpolable(unit, validate_class(kappa, 1.0)) <= 1e-6
    return size / sx


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    # x_0's unit Gram entry times delta / L is 1e400: the iterates are ~1e200
    ("--L=1e-200", "--delta=1e200", "--steps", "1"),
    # delta / L = 1e-400: a Gram matrix in user units would underflow
    ("--L=1e200", "--delta=1e-200", "--steps", "0.5", "--N", "2"),
])
def test_pep_triplets_far_from_unit_scale(capsys, tmp_path, monkeypatch, argv):
    # extract_triplets factors the solver's unit Gram matrix and maps the
    # triplets once, so only the optimum and the triplets must fit a double
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, "pep", "--kappa=-1", *argv, "--emit-triplets", "t.json")
    assert rc == 0 and err == "", err
    assert float(grab(out, "rel_error")) <= 1e-8
    L, delta = (float(a.partition("=")[2]) for a in argv[:2])
    steps = [float(argv[3])] * (int(argv[5]) if len(argv) > 4 else 1)
    assert 0.1 <= check_emitted_triplets(tmp_path / "t.json", steps, L, delta) <= 10.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pep_gap_to_last_has_no_x0_entry_to_overflow(capsys, tmp_path, monkeypatch):
    # the same command for gap-to-last: its Gram basis has no x_0, which is
    # the origin, so only the optimum and the values must fit a double
    monkeypatch.chdir(tmp_path)
    L, delta = 1e-200, 1e200
    rc, out, err = run(capsys, "pep", "--kind", "last", "--kappa=-1", f"--L={L}",
                       f"--delta={delta}", "--steps", "1", "--emit-triplets", "t.json")
    assert rc == 0, err
    assert float(grab(out, "rel_error")) <= 1e-8
    data = json.loads((tmp_path / "t.json").read_text())
    assert data["triplets"][0]["x"] == [0.0] * data["dim"]
    # |x_1 - x_0|^2 ~ 1e400 overflows in user units, so check at unit scale
    sx, sg = math.sqrt(delta) / math.sqrt(L), math.sqrt(L) * math.sqrt(delta)
    rows = data["triplets"]
    ts = TripletSet(np.divide([t["x"] for t in rows], sx), np.divide([t["g"] for t in rows], sg),
                    [t["f"] / delta for t in rows])
    assert check_interpolable(ts, validate_class(-1.0, 1.0)) <= 1e-6


@pytest.mark.parametrize("kind", list(NumeratorKind))
@pytest.mark.parametrize("steps", [(0.3, 1.0, 0.7), (1.0,), (1.2, 1.9)])
def test_reference_bound_unbounded_below(kind, steps):
    # the reference reads t, which is 0 at mu = -inf
    cls = validate_class(-math.inf, 2.0)
    p = PepProblem(cls, StepSchedule(steps), 1.5, kind)
    assert cli._reference_bound(p) == nstep_bound(cls, p.sched, 1.5, kind).bound


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("--kappa=-1", "--L=1e-4", "--steps", "1"),
    ("--kappa=-1", "--L=1e-8", "--steps", "1"),
    ("--kappa=-1", "--L=1e4", "--steps", "1"),
    ("--kappa=-1", "--L=1e8", "--steps", "1"),
    ("--kappa=-1", "--L=1e-300", "--steps", "1"),
    ("--kappa=-1", "--delta=1e-4", "--steps", "1"),
    ("--kappa=-1", "--delta=1e8", "--steps", "1"),
    ("--kappa=-2", "--L=1e-6", "--delta=1e6", "--steps", "1.3", "--N", "5"),
])
def test_pep_far_from_unit_scale(capsys, tmp_path, argv):
    # L and delta far from 1: the optimum is L delta times the unit-scale one,
    # and the emitted triplets interpolate in user units
    trip = tmp_path / "t.json"
    rc, out, err = run(capsys, "pep", *argv, "--emit-triplets", str(trip))
    assert rc == 0, err
    assert float(grab(out, "rel_error")) <= 1e-8
    args = dict(a.lstrip("-").split("=") for a in argv if "=" in a)
    L, delta = float(args.get("L", 1.0)), float(args.get("delta", 1.0))
    data = json.loads(trip.read_text())
    rows = data["triplets"]
    ts = TripletSet([t["x"] for t in rows], [t["g"] for t in rows], [t["f"] for t in rows])
    cls = validate_class(float(args["kappa"]) * L, L)
    assert check_interpolable(ts, cls) <= 1e-6 * delta


@st.composite
def _pep_at_any_scale(draw):
    """kappa in [-3, 0), N <= 3 steps in [0.01, 1] h_bar, and L, delta log-uniform
    over [1e-200, 1e200] with L delta in [1e-200, 1e200]."""
    kappa = draw(st.floats(-3.0, 0.0, exclude_max=True))
    h_bar = step_threshold(kappa)
    steps = [u * h_bar for u in draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))]
    e_L = draw(st.floats(-200.0, 200.0))
    e_delta = draw(st.floats(max(-200.0, -200.0 - e_L), min(200.0, 200.0 - e_L)))
    return kappa, steps, 10.0**e_L, 10.0**e_delta, draw(st.sampled_from(["last", "opt"]))


@given(draw=_pep_at_any_scale())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pep_at_any_scale_is_the_unit_pep(draw):
    # every such PEP is the unit one: pep exits 0 and prints L delta times the
    # unit optimum, bit for bit, and writes finite triplets on the step
    # recursion in user units, whatever delta / L is
    kappa, steps, L, delta, kind = draw
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        argv = ["pep", f"--kappa={kappa!r}", f"--L={L!r}", f"--delta={delta!r}",
                f"--steps={','.join(map(repr, steps))}", "--kind", kind, "--emit-triplets", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc == 0, (argv, err.getvalue())
        numerator = NumeratorKind.gap_to_last if kind == "last" else NumeratorKind.gap_to_optimal
        p = PepProblem(validate_class(kappa * L, L), StepSchedule(tuple(steps)), delta, numerator)
        unit = solve(build_sdp(p)).objective
        assert float(grab(out.getvalue(), "optimum")) == unit * (L * delta), argv
        check_emitted_triplets(path, steps, L, delta, kappa)


@st.composite
def _command_at_any_scale(draw):
    """rate, pep, worstcase, tightness or sweep --target pep; kappa in [-3, 0),
    N <= 3 steps in [0.01, 1] times h_bar (times 1 for the construction), and
    L and delta each log-uniform over [1e-300, 1e300], with L delta unbounded."""
    cmd = draw(st.sampled_from(["rate", "pep", "worstcase", "tightness", "sweep"]))
    kappa = draw(st.floats(-3.0, 0.0, exclude_max=True))
    top = 1.0 if cmd in ("worstcase", "tightness") else step_threshold(kappa)
    steps = [u * top for u in draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))]
    L, delta = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    argv = [f"--kappa={kappa!r}", f"--L={L!r}", f"--delta={delta!r}",
            "--kind", draw(st.sampled_from(["last", "opt"]))]
    if cmd == "sweep":
        return ["sweep", "--target", "pep", f"--h={steps[0]!r}", f"--N={len(steps)}", *argv]
    return [cmd, f"--steps={','.join(map(repr, steps))}", *argv]


@seed(20221029)
@given(argv=_command_at_any_scale())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_commands_at_any_scale_exit_0_or_2(argv):
    # whatever L delta is: exit 0 with finite numbers (a sweep's failed point
    # in its error column), or exit 2 with nothing printed; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    if rc == 2:
        assert out.getvalue() == "", argv
    elif argv[0] == "sweep":
        row = next(csv.DictReader(io.StringIO(out.getvalue())))
        assert row["error"] == "" or row["error"].startswith("ScaleOverflow: "), (argv, row)
        assert all(math.isfinite(float(row[k])) for k in ("optimum", "reference", "rel_error")
                   if row[k]), (argv, row)
    else:
        assert all(math.isfinite(v) for v in printed_numbers(out.getvalue())), (argv, out)


def test_optstep_command(capsys):
    rc, out, _ = run(capsys, "optstep", "--kappa", "-1")
    assert rc == 0
    assert abs(float(grab(out, "h_star")) - 2.0 / math.sqrt(3.0)) < 1e-10


@pytest.mark.parametrize("mode", ["theorem", "asymptotic"])
def test_optstep_at_minus_inf_prints_the_limit(capsys, mode):
    # t = 0 takes w = 1 - t = 1 directly; -1e300 has t = 1e-300 and prints the same bytes
    rc, out, err = run(capsys, "optstep", "--kappa=-inf", "--mode", mode)
    assert rc == 0 and err == "", err
    assert out == run(capsys, "optstep", "--kappa=-1e300", "--mode", mode)[1]
    assert grab(out, "h_star") == "1" and grab(out, "h_bar") == "2", out


def test_optstep_asymptotic_at_kappa_zero_names_the_rule(capsys):
    rc, out, err = run(capsys, "optstep", "--kappa=0", "--mode", "asymptotic")
    assert rc == 2 and out == ""
    assert err == ("error: ValidationError: asymptotic mode requires kappa < 0: at kappa = 0 "
                   "the cubic's root is h = 2, outside the steps (0, 2)\n"), err


@pytest.mark.parametrize("kind", ["opt", "last"])
def test_pep_at_minus_inf_meets_the_rate(capsys, kind):
    rc, out, err = run(capsys, "pep", "--kappa=-inf", "--steps", "0.3,1.0,0.7", "--kind", kind)
    assert rc == 0 and err == "", err
    assert float(grab(out, "rel_error")) <= 1e-8, out


_RATE = ("rate", "--steps", "0.5")
_SWEEP = ("sweep", "--target", "rate", "--h", "0.5", "--N", "2")


@pytest.mark.parametrize("argv, value", [(_RATE, "-inf"), (_RATE, "-1e6"), (_RATE, "-.5"),
                                         (_SWEEP, "-inf"), (_SWEEP, "-1e6"), (_SWEEP, "-.5"),
                                         (_SWEEP, "-1,-0.5")])
def test_negative_kappa_as_its_own_argument(capsys, argv, value):
    # '--kappa -inf' is '--kappa=-inf': the token's first ',' or ':' field parses as a float
    joined = run(capsys, *argv, f"--kappa={value}")
    assert joined[0] == 0 and joined[2] == "", joined
    assert run(capsys, *argv, "--kappa", value) == joined


def test_pep_command_matches_analytic(capsys, tmp_path):
    trip = tmp_path / "t.json"
    rc, out, _ = run(capsys, "pep", "--kappa", "-1", "--steps", "1", "--kind", "opt",
                     "--emit-triplets", str(trip))
    assert rc == 0
    assert abs(float(grab(out, "optimum")) - 0.8) < 1e-6
    assert float(grab(out, "rel_error")) < 1e-6
    data = json.loads(trip.read_text())
    assert len(data["triplets"]) == 3


_MID_STEPS = ("1.1062714796819184,1.180541455161994,1.1336032828468796,1.2876944386710392,"
              "1.039514052471554,1.384822453118566,1.2012593717132247,1.4600315600580442")


@pytest.mark.parametrize("argv, dim, exact", [
    (("--kappa=-0.01", "--steps", "1.6", "--N", "20"), 22, False),
    (("--kappa=-0.0020934778125878267", "--steps", _MID_STEPS), 10, True),
])
def test_emitted_triplets_of_a_verified_optimum_interpolate(capsys, tmp_path, argv, dim, exact):
    # the triplets are the whole factor of the verified Gram matrix, so they
    # pass the rows verify_solution passed; a factor truncated to the
    # eigenvalues above 1e-7 of the largest failed these by 2.3e-4 and 9.8e-6
    trip = tmp_path / "t.json"
    rc, out, err = run(capsys, "pep", *argv, "--kind", "opt", "--emit-triplets", str(trip))
    assert rc == 0 and err == "", err
    data = json.loads(trip.read_text())
    assert data["dim"] == dim and len(data["triplets"]) == dim
    assert ("rel_error" in out) == exact
    if exact:
        assert float(grab(out, "rel_error")) <= 1e-8, out


@pytest.mark.parametrize("steps, kind, exact", [
    # straddles h = 1 below h_bar(-2) = 1.8228...: the rate is only an upper bound
    ("1.8228756555322951,0.3", "last", False),
    ("0.4,1.2", "opt", False),
    ("1.3", "last", True),  # constant, beyond 1
    ("0.3,0.9,1.0", "opt", True),  # every step at most 1
    ("1.2,1.7", "last", True),  # every step in [1, h_bar]
])
def test_pep_reference_only_where_the_rate_is_exact(capsys, steps, kind, exact):
    rc, out, _ = run(capsys, "pep", "--kappa", "-2", "--steps", steps, "--kind", kind)
    assert rc == 0
    keys = [line.split()[0] for line in out.splitlines()]
    if exact:
        assert keys == ["optimum", "iterations", "reference", "rel_error"]
        assert float(grab(out, "rel_error")) < 1e-8
    else:
        assert keys == ["optimum", "iterations"]


@pytest.mark.parametrize(
    "exc, code", [(IndefiniteGram, 3), (InterpolationFailure, 4)]
)
def test_emit_triplets_failure_exit_code(capsys, tmp_path, monkeypatch, exc, code):
    def fail(p, sol):
        raise exc("injected")

    monkeypatch.setattr(pep, "extract_triplets", fail)
    rc, _, err = run(capsys, "pep", "--kappa", "-1", "--steps", "1",
                     "--emit-triplets", str(tmp_path / "t.json"))
    assert rc == code
    assert err.strip() == f"error: {exc.__name__}: injected"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tightness_pass(capsys):
    # the check runs on the unit construction, L = delta = 1, so it passes at
    # delta = 1e7 and where |x_i - x_j|^2 ~ delta / L overflows in user units;
    # the violation is never negative, so never -0 where no pair violates
    # (the last two argvs with --kind last)
    for args in (("--kappa=-2", "--L", "2", "--delta", "2", "--steps", "1,0.5,0.75"),
                 ("--kappa=-1e3", "--steps", "1,0.5,0.75"),
                 ("--kappa=-2", "--delta=1e7", "--steps", "0.5,0.5"),
                 ("--kappa=-1", "--steps", "0.5,0.9", "--L=1e-200", "--delta=1e200"),
                 ("--kappa=-1", "--steps", "0.5,0.9", "--L=1e-300", "--delta=1e300"),
                 ("--kappa=0", "--steps", "0.5"),
                 ("--kappa=-1", "--steps", "1")):
        for kind in ("opt", "last"):
            rc, out, err = run(capsys, "tightness", *args, "--kind", kind)
            assert rc == 0 and err == "", (args, out, err)
            assert "PASS" in out
            assert "interpolation_violation -" not in out, (args, kind, out)


def test_worstcase_exports(capsys, tmp_path):
    csv_out = tmp_path / "w.csv"
    json_out = tmp_path / "w.json"
    rc, out, _ = run(capsys, "worstcase", "--kappa", "-1", "--steps", "1,0.5",
                     "--kind", "opt", "--csv-out", str(csv_out),
                     "--json-out", str(json_out), "--samples", "20")
    assert rc == 0
    assert len(csv_out.read_text().strip().splitlines()) == 21

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    # strict JSON: the tail caps' infinite ends are null, not -Infinity and Infinity
    obj = json.loads(json_out.read_text(), parse_constant=refuse)
    assert obj["kind"] == "gap_to_optimal"
    assert obj["pieces"][0]["lo"] is None and obj["pieces"][-1]["hi"] is None


def test_worstcase_json_at_kappa_minus_inf(capsys, tmp_path):
    # mu = -inf is written as null, and every piece has curvature L
    json_out = tmp_path / "w.json"
    rc, out, err = run(capsys, "worstcase", "--kappa=-inf", "--steps", "0.3,0.9,1",
                       "--json-out", str(json_out))
    assert rc == 0 and err == "", err

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    obj = json.loads(json_out.read_text(), parse_constant=refuse)
    assert obj["mu"] is None
    assert all(p["curvature"] == obj["L"] for p in obj["pieces"]), obj["pieces"]


def test_worstcase_negative_samples_writes_nothing(capsys, tmp_path):
    csv_out, json_out = tmp_path / "w.csv", tmp_path / "w.json"
    rc, out, err = run(capsys, "worstcase", "--kappa=-1", "--steps", "0.5", "--csv-out", str(csv_out),
                       "--json-out", str(json_out), "--samples=-1")
    assert rc == 2 and out == "", out
    assert err == "error: ValidationError: --samples must be nonnegative, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, name", [("--mu-reg=inf", "mu_reg"), ("--delta-h=inf", "delta_h"),
                                        ("--mu-reg=nan", "mu_reg"), ("--delta-h=-inf", "delta_h")])
def test_non_finite_huber_weight_is_named(capsys, flag, name):
    rc, out, err = run(capsys, "experiment", "--problem", "huber", "--steps", "1", "--N", "2", flag)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: ValidationError: {name} must be finite"), err


def test_sweep_row_count_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc, _, _ = run(capsys, "sweep", "--target", "rate", "--kappa", "-1,-0.5,0",
                       "--h", "0.1:0.1:1.5", "--N", "5", "--out", str(out))
        assert rc == 0
    text = out1.read_text()
    assert len(text.strip().splitlines()) == 46  # header + 3 * 15 rows
    assert text == out2.read_text()  # byte-identical


def test_pep_sweep_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc, _, _ = run(capsys, "sweep", "--target", "pep", "--kappa", "-1,-0.5",
                       "--h", "0.5:0.5:1.5", "--N", "1,2", "--out", str(out))
        assert rc == 0
    text = out1.read_text()
    assert len(text.strip().splitlines()) == 13  # header + 2 * 3 * 2 rows
    assert text == out2.read_text()  # byte-identical


def test_pep_size_cap_exit_code(capsys):
    rc, _, err = run(capsys, "pep", "--kappa", "-1", "--steps", "1", "--N", "63")
    assert rc == 2
    assert "ProblemTooLarge" in err


def test_fit_r_checks_the_size_cap_before_the_first_solve(capsys, monkeypatch):
    # N = 5 and 6 need gram_dim 7 and 8, so nothing is solved or printed
    monkeypatch.setattr(sdpsolver, "MAX_GRAM_DIM", 6)
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "1.8", "--N", "3:6")
    assert rc == 2 and out == ""
    assert err == "error: ProblemTooLarge: dense solver limited to gram_dim <= 6, got 8\n"


def test_fit_r_checks_h_bar_before_the_first_solve(capsys, monkeypatch):
    # h_bar(-1) = sqrt(3): h = 1.5 is not in the third regime, so nothing is solved
    def no_solve(p):
        raise AssertionError("fit-r solved a PEP")

    monkeypatch.setattr(pep, "solve_pep", no_solve)
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "1.5", "--N", "3:30")
    assert rc == 2 and out == ""
    assert err == "error: StepOutOfRange: h=1.5 outside (h_bar=1.7320508075688772, 2)\n"


def test_sweep_per_point_errors(capsys, tmp_path):
    out = tmp_path / "e.csv"
    rc, _, _ = run(capsys, "sweep", "--target", "rate", "--kappa", "-1",
                   "--h", "1.0,1.9", "--N", "2", "--out", str(out))
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3
    assert "StepAboveThreshold" in rows[2]


def test_sweep_json_columns(capsys):
    # every row has its target's columns in the CSV header's order, with ""
    # where a point failed
    rc, out, _ = run(capsys, "sweep", "--target", "rate", "--kappa", "-1", "--h", "1.0,1.9",
                     "--N", "2", "--format", "json")
    assert rc == 0
    assert out == json.dumps([
        {"kappa": "-1", "h": "1", "N": "2", "bound": "0.5", "denominator": "4", "error": ""},
        {"kappa": "-1", "h": "1.8999999999999999", "N": "2", "bound": "", "denominator": "",
         "error": "StepAboveThreshold: step index 0: h=1.9 exceeds h_bar=1.7320508075688772"
                  " (t=0.5)"},
    ], indent=2) + "\n"
    rc, out, _ = run(capsys, "sweep", "--target", "pep", "--kappa", "-1", "--h", "1.0",
                     "--N", "1,63", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert [list(row) for row in rows] == [
        ["kappa", "h", "N", "optimum", "reference", "rel_error", "error"]] * 2
    assert rows[0]["error"] == "" and float(rows[0]["rel_error"]) <= 1e-8
    assert rows[1] == {"kappa": "-1", "h": "1", "N": "63", "optimum": "", "reference": "",
                       "rel_error": "",
                       "error": "ProblemTooLarge: dense solver limited to gram_dim <= 64, got 65"}


def test_steps_file(capsys, tmp_path):
    f = tmp_path / "steps.txt"
    f.write_text("1.0\n0.5\n")
    rc, out, _ = run(capsys, "rate", "--kappa", "-1", "--steps-file", str(f))
    assert rc == 0
    assert "p[1]" in out


def test_experiment_huber(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    rc, text, _ = run(capsys, "experiment", "--problem", "huber", "--rows", "12",
                      "--cols", "4", "--steps", "1.0", "--N", "10",
                      "--fstar-iters", "200", "--out", str(out))
    assert rc == 0
    assert float(grab(text, "min_grad_sq").split()[0]) >= 0.0
    assert len(out.read_text().strip().splitlines()) == 12


def test_fit_r_command(capsys):
    # both kinds find the same linear points and, with 1 added to the gap-to-last
    # denominators, the same intercept; at h = 1.933, N = 3 and 4 are geometric
    for kappa, h, n_range, used_n in (("-1", "1.8", "3:6", "3,4,5,6"),
                                      ("-1", "1.933", "3:8", "5,6,7,8"),
                                      ("-2", "1.9557", "3:7", "5,6,7")):
        r = {}
        for kind in ("opt", "last"):
            rc, out, _ = run(capsys, "fit-r", f"--kappa={kappa}", "--h", h, "--N", n_range,
                             "--kind", kind)
            assert rc == 0 and grab(out, "used_N") == used_n, (h, kind, out)
            r[kind] = float(grab(out, "r"))
        assert r["opt"] > 0.0 and abs(r["opt"] - r["last"]) <= 1e-7, (h, r)


def test_fit_r_prints_nothing_before_a_later_solver_failure(capsys, monkeypatch):
    solve_pep = pep.solve_pep

    def fail_at_n5(p):
        if p.sched.n == 5:
            raise pep.SolverFailure("solver status MaxIter")
        return solve_pep(p)

    monkeypatch.setattr(pep, "solve_pep", fail_at_n5)
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "1.8", "--N", "3:6")
    assert rc == 3 and out == "", out
    assert err == "error: SolverFailure: solver status MaxIter\n"


def test_tightness_fail_prints_its_report(capsys, monkeypatch):
    # exit 4: the report is the diagnostic of the failed check, so it is printed
    verify = worstcase.verify_tightness
    monkeypatch.setattr(worstcase, "verify_tightness",
                        lambda *a, **k: dataclasses.replace(verify(*a, **k), passed=False))
    rc, out, err = run(capsys, "tightness", "--kappa=-1", "--steps", "0.5")
    assert rc == 4
    assert out.splitlines()[0].startswith("U ") and out.splitlines()[-1] == "FAIL", out
    assert err == "error: CheckFailure: tightness verification failed\n"


def test_pep_forms_no_bound_for_a_mixed_schedule(capsys):
    # the optimum fits a double where the rate, 0.09% above it and not printed, would not
    rc, out, err = run(capsys, "pep", "--kappa=-1", "--steps", "1.7,0.05", "--kind", "last",
                       "--L=1e200", "--delta=9.372439433067869e+107")
    assert rc == 0 and err == "" and "reference" not in out, (out, err)
    assert math.isfinite(float(grab(out, "optimum")))


def test_rate_labels_a_straddling_schedule_mixed(capsys):
    # the rate is exact for steps all <= 1 or all in [1, h_bar], an upper bound between
    for steps, regime in [("0.5,1.5", "mixed"), ("1,1.5", "mid"), ("0.5,1", "short")]:
        rc, out, _ = run(capsys, "rate", "--kappa=-1", "--steps", steps)
        assert rc == 0 and grab(out, "regime") == f"{regime} conjectured False", out


@pytest.mark.parametrize("argv, name", [
    (("rate", "--kappa=0.5", "--steps", "0.5"), "PositiveKappa"),
    (("optstep", "--kappa=0.5"), "PositiveKappa"),
    (("fit-r", "--kappa=0.5", "--h", "1.8", "--N", "3:4"), "PositiveKappa"),
    (("pep", "--kappa=1", "--steps", "0.5"), "MuAboveL"),
    (("optstep", "--kappa=1"), "MuAboveL"),
    (("pep", "--kappa=inf", "--steps", "0.5"), "MuAboveL"),
    (("pep", "--kappa=nan", "--steps", "0.5"), "ValidationError"),
])
def test_kappa_rules_have_one_error_each(capsys, argv, name):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "", out
    assert err.startswith(f"error: {name}: "), err


def test_fit_r_branch_mismatch_exit_code(capsys, monkeypatch):
    # h = 0.5 is below h_bar, so it is refused before any solve
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "0.5", "--N", "2:5")
    assert rc == 2 and out == ""
    assert err.startswith("error: StepOutOfRange: h=0.5 outside")
    # optima whose denominators 1 + N/10 grow at a slope other than the third regime's
    monkeypatch.setattr(pep, "solve_pep",
                        lambda p: types.SimpleNamespace(objective=2.0 / (1.0 + 0.1 * p.sched.n)))
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "1.8", "--N", "2:5")
    assert rc == 4
    assert "r " not in out
    assert err.startswith("error: BranchMismatch: observed slope")


@pytest.mark.parametrize("argv", [
    ("rate", "--kappa", "nan", "--steps", "0.5"),
    ("rate", "--kappa", "-1", "--L", "inf", "--steps", "0.5"),
    ("rate", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
    ("worstcase", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
    ("optstep", "--kappa", "nan"),
    ("tightness", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
    ("optstep", "--kappa=inf"),
    ("rate", "--kappa=inf", "--steps", "0.5"),
    ("pep", "--kappa=nan", "--steps", "0.5"),
])
def test_non_finite_input_exit_code(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("flag,argv", [
    ("--tol", ("tightness", "--kappa=-1", "--steps", "0.5", "--tol", "nan")),
    ("--tol", ("tightness", "--kappa=-1", "--steps", "0.5", "--tol=-1")),
    ("--fstar-iters", ("experiment", "--problem", "huber", "--steps", "1", "--fstar-iters", "0")),
    ("--fstar-iters", ("experiment", "--problem", "huber", "--steps", "1", "--fstar-iters=-4")),
])
def test_bad_tolerance_or_iteration_count_exit_code(capsys, flag, argv):
    # refused by name before any output, not reported as a failed check or
    # as an empty step schedule
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "", err
    assert err.startswith(f"error: ValidationError: {flag} must be"), err


@pytest.mark.parametrize("argv", [
    ("fit-r", "--kappa=-1", "--h", "1.8", "--N", "5"),
    ("sweep", "--target", "rate", "--kappa=abc", "--h", "0.5", "--N", "1"),
    ("sweep", "--target", "rate", "--kappa=-1", "--h", "0.5", "--N", "x"),
    ("rate", "--kappa=-1", "--steps", "1,abc"),
    ("rate", "--kappa=-1", "--steps", "0.5:x:1"),
    ("rate", "--kappa=-1", "--steps-file", "missing/steps.txt"),
    ("experiment", "--problem", "huber", "--steps", "1", "--N", "2", "--data-a", "missing/a.csv"),
    ("pep", "--kappa=-1", "--steps", "1", "--emit-triplets", "missing/d/t.json"),
    ("experiment", "--problem", "huber", "--steps", "1", "--N", "2", "--fstar-iters", "20",
     "--out", "missing/d/x.csv"),
    ("rate", "--kappa=-1", "--steps", "0:1e-300:1"),
    ("rate", "--kappa=-1", "--steps", "0:1:inf"),
    ("worstcase", "--kappa=-1", "--steps", "0.5", "--csv-out", "w.csv", "--samples", "-1"),
    ("experiment", "--problem", "huber", "--steps", "1", "--N", "2", "--rows", "-1"),
    ("experiment", "--problem", "huber", "--steps", "1", "--N", "2", "--cols", "-1"),
    ("experiment", "--problem", "huber", "--steps", "1", "--N", "2", "--seed", "-1"),
    ("experiment", "--problem", "logistic", "--reg-weight=-0.1", "--steps", "1", "--N", "5"),
    ("worstcase", "--kappa=-1", "--steps", "0.5", "--json-out", "missing/w.json"),
])
def test_malformed_argument_or_path_exit_code(capsys, tmp_path, monkeypatch, argv):
    # a value that is not a number, list or range, a range that is not finite
    # or too long, a count, size, seed or weight out of range, or a file that
    # cannot be opened, ends in exit 2 and one error line, not a traceback
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "", (err, out)  # no answer is printed, not even a whole one
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag,argv", [
    ("--N", ("rate", "--kappa=-1", "--steps", "0.5", "--N", "1000000000000")),
    ("--N", ("tightness", "--kappa=-1", "--steps", "0.5", "--N", "1000000000000")),
    ("--N", ("pep", "--kappa=-1", "--steps", "0.5", "--N", "1000000000000")),
    ("--N", ("sweep", "--target", "rate", "--kappa=-1", "--h", "0.5", "--N", "1,1000000000000")),
    ("--N", ("experiment", "--problem", "huber", "--steps", "1.0", "--N", "1000000000000")),
    ("--fstar-iters", ("experiment", "--problem", "huber", "--steps", "1.0", "--N", "5",
                       "--fstar-iters", "10000000000000")),
    ("the larger of --rows x --cols and --cols x --cols",
     ("experiment", "--problem", "huber", "--steps", "1.0", "--N", "5",
      "--rows", "1000000000", "--cols", "1000000000")),
    ("the larger of --rows x --cols and --cols x --cols",  # A^T A is cols x cols
     ("experiment", "--problem", "logistic", "--steps", "1.0", "--N", "5", "--rows", "1",
      "--cols", "1001")),
    ("--samples", ("worstcase", "--kappa=-1", "--steps", "0.5", "--samples", "1000000000000",
                   "--csv-out", "x.csv")),
])
def test_oversized_count_exit_code(capsys, tmp_path, monkeypatch, flag, argv):
    # each count that sizes an array is refused by name before any output,
    # allocation or file write (it used to end in a MemoryError traceback)
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "", err
    assert err.startswith(f"error: ValidationError: {flag} must be at most "), err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["1,2\nx,3\n4,5\n", "1,2\n3\n", ""])
def test_malformed_matrix_file_exit_code(capsys, tmp_path, text):
    # a non-numeric data cell, a ragged row or an empty file is bad input
    path = tmp_path / "a.csv"
    path.write_text(text)
    rc, out, err = run(capsys, "experiment", "--problem", "huber", "--steps", "1", "--N", "2",
                       "--data-a", str(path))
    assert rc == 2, err
    assert out == "" and err.startswith("error: ValidationError: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, cell", [("1,2\n1,nan\n", "data row 2, column 2 is not finite: 'nan'"),
                                        ("a,b\n-inf,2\n", "data row 1, column 1 is not finite: '-inf'")])
def test_non_finite_matrix_cell_is_named(capsys, tmp_path, text, cell):
    path = tmp_path / "a.csv"
    path.write_text(text)
    rc, out, err = run(capsys, "experiment", "--problem", "huber", "--steps", "1", "--N", "2",
                       "--data-a", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: ValidationError: {path}: {cell}\n"


@pytest.mark.parametrize("problem,flag,a_text,v_text", [
    ("huber", "--data-b", "1,2\n3,4\n5,6\n", "1\n2\n"),
    ("logistic", "--data-y", "1,2\n3,4\n5,6\n", "1\n0\n"),
    ("huber", "--data-b", "1,2\n3,4\n", "1,2\n3,4\n"),  # raveled to length 4
    ("logistic", "--data-y", "1,2\n3,4\n", "1,0\n0,1\n"),
], ids=["huber-b-short", "logistic-y-short", "huber-b-matrix", "logistic-y-matrix"])
def test_data_length_mismatch_exit_code(capsys, tmp_path, problem, flag, a_text, v_text):
    # b or y needs one entry per row of A
    a, v = tmp_path / "a.csv", tmp_path / "v.csv"
    a.write_text(a_text)
    v.write_text(v_text)
    rc, out, err = run(capsys, "experiment", "--problem", problem, "--steps", "1", "--N", "2",
                       "--data-a", str(a), flag, str(v))
    assert rc == 2, err
    assert out == "" and err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1, err


STARTUP_PROBE = """
import json, sys
from hypopep import cli
codes = [cli.main(argv) for argv in (
    ["rate", "--kappa=-1", "--steps", "1", "--N", "10"],
    ["optstep", "--kappa=-1"],
    ["sweep", "--target", "rate", "--kappa=-1,-0.5", "--h", "0.5:0.5:2", "--N", "1,10"],
    ["rate", "--kappa=-1", "--steps", "1.9"],
)]
numpy_loaded = "numpy" in sys.modules
print(json.dumps([codes, numpy_loaded, sys.modules["hypopep.pep"].solve_pep.__name__]))
"""


def test_closed_form_commands_start_without_numpy():
    # the numpy modules load on first use: the closed-form commands and an
    # exit-2 input never import numpy, and the lazy modules still resolve
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, numpy_loaded, name = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 2]
    assert not numpy_loaded
    assert name == "solve_pep"


@pytest.mark.parametrize("extra", [("--steps", "1.9"), ("--steps", "1", "--mu-reg", "0.5")])
def test_experiment_csv_without_a_bound(capsys, tmp_path, extra):
    # past a step above h_bar, or with mu > 0, the rate gives no bound: the
    # CSV still has every row, with those bound cells empty
    out = tmp_path / "traj.csv"
    rc, _, err = run(capsys, "experiment", "--problem", "huber", "--rows", "12", "--cols", "4",
                     "--N", "5", "--fstar-iters", "200", "--out", str(out), *extra)
    assert rc == 0, err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["iter"] for row in rows] == [str(i) for i in range(6)]
    assert float(rows[0]["bound_so_far"]) > 0.0
    assert all(row["bound_so_far"] == "" for row in rows[1:])


_kappas = st.one_of(st.floats(-1e6, 0.0), st.sampled_from([math.nan, math.inf, -math.inf, 0.5]))
_scales = st.one_of(
    st.floats(1e-6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])
)
_steps = st.lists(
    st.one_of(
        st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0.0, 2.0, -0.5, 2.5]),
    ),
    min_size=1,
    max_size=4,
)


# pep: valid kappa (the invalid ones reach the same validate_class through the
# other commands), N <= 3 steps in (0, 2), L and delta log-uniform over [1e-8, 1e8]
_pep_kappas = st.floats(-1e6, 0.0)
_pep_steps = st.lists(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=3)
_log_scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)

# Known defects of the PEP route, pinned by their signature: (d) with a step
# below 1e-3 and (f) at kappa <= -1e5 the solver may stop at a relaxed
# Optimal up to 1e-6 off the rate (tests/test_routes.py pins (d)).
DEFECT_F = "defect (f): the PEP route misses 1e-8 at kappa <= -1e5 (up to 5e-7 off)"


def _pep_rel_tol(argv):
    kappa = float(argv[1].partition("=")[2])
    steps = [float(h) for h in argv[4].partition("=")[2].split(",")]
    return 1e-6 if min(steps) < 1e-3 or kappa <= -1e5 else 1e-8


@st.composite
def _cli_argv(draw):
    cmd = draw(st.sampled_from(["rate", "optstep theorem",
                                "optstep asymptotic", "tightness", "worstcase", "pep"]))
    name, _, extra = cmd.partition(" ")
    is_pep = name == "pep"
    argv = [name, f"--kappa={draw(_pep_kappas if is_pep else _kappas)!r}"]
    if name == "optstep":
        return argv + ["--mode", extra]
    scales = _log_scales if is_pep else _scales
    steps = ",".join(repr(h) for h in draw(_pep_steps if is_pep else _steps))
    argv += [f"--L={draw(scales)!r}", f"--delta={draw(scales)!r}", f"--steps={steps}",
             "--kind", draw(st.sampled_from(["last", "opt"]))]
    return argv + ([extra] if extra else [])


@given(argv=_cli_argv())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exit_codes_and_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    if rc == 0:
        for token in re.split(r"[\s=,]+", out.getvalue()):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), (argv, out.getvalue())
        if "rel_error" in out.getvalue():  # a pep optimum agrees with its reference
            assert float(grab(out.getvalue(), "rel_error")) <= _pep_rel_tol(argv), argv


# experiment and worstcase --samples, which _cli_argv never draws: signed
# sizes, seeds and sample counts, and signed or non-finite testbed weights
_signed_ints = st.integers(-1, 8)
_weights = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _testbed_argv(draw):
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3))
        return ["worstcase", "--kappa=-1", f"--steps={','.join(map(repr, steps))}",
                "--csv-out", os.devnull, f"--samples={draw(st.integers(-3, 5))}"]
    problem = draw(st.sampled_from(["huber", "logistic"]))
    argv = ["experiment", "--problem", problem, f"--rows={draw(_signed_ints)}",
            f"--cols={draw(_signed_ints)}", f"--seed={draw(_signed_ints)}",
            f"--fstar-iters={draw(st.integers(0, 50))}",
            f"--steps={draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))!r}",
            f"--N={draw(st.integers(1, 5))}"]
    if problem == "huber":
        return argv + [f"--delta-h={draw(_weights)!r}", f"--mu-reg={draw(_weights)!r}"]
    return argv + [f"--reg-weight={draw(_weights)!r}"]


@given(argv=_testbed_argv())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_testbed_exit_codes_and_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    if rc == 0:
        for token in re.split(r"[\s=,]+", out.getvalue()):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), (argv, out.getvalue())


@pytest.mark.xfail(strict=True, reason=DEFECT_F)
@pytest.mark.parametrize("kind", ["opt", "last"])
def test_pep_large_negative_kappa_meets_the_rate(capsys, kind):
    rc, out, _ = run(capsys, "pep", "--kappa=-1e6", "--steps", "1.15", "--kind", kind)
    assert rc == 0 and float(grab(out, "rel_error")) <= 1e-8, out


# log-spaced from -1e6 to -1e308, the values that used to end in a traceback, and -inf
_extreme_kappas = [-(10.0 ** e) for e in range(6, 309, 2)] + [-7.7e7, -5e9, -1.2e16, -1.7e308,
                                                                -math.inf]


@pytest.mark.parametrize("cmd", [
    ("rate", "--steps=0.5", "--N=3"),
    ("rate", "--steps=1.5,0.3", "--kind=last"),
    ("optstep", "--mode=theorem"),
    ("optstep", "--mode=asymptotic"),
    ("worstcase", "--steps=0.5,0.9"),
    ("tightness", "--steps=0.5,1.0"),
])
def test_extreme_kappa_exit_code(cmd):
    # the closed forms and the construction accept every kappa in [-inf, 0]
    for kappa in _extreme_kappas:
        argv = [cmd[0], f"--kappa={kappa!r}", *cmd[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc == 0, (argv, err.getvalue())
        for token in re.split(r"[\s=,]+", out.getvalue()):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token)), (argv, out.getvalue())


def _failing_report(sdp, sol):
    return VerificationReport(False, 0.0, 0.0, 0.0, 1.0, ["duality gap 1.0", "injected"])


@pytest.mark.parametrize("argv", [
    ("pep", "--kappa", "-1", "--steps", "1"),
    ("fit-r", "--kappa", "-1", "--h", "1.8", "--N", "3:4"),
])
def test_failed_verification_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setattr(pep, "verify_solution", _failing_report)
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert "optimum" not in out
    assert err.strip() == "error: SolverFailure: verification failed: duality gap 1.0; injected"


def test_failed_verification_sweep_error_column(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(pep, "verify_solution", _failing_report)
    out = tmp_path / "v.csv"
    rc, _, _ = run(capsys, "sweep", "--target", "pep", "--kappa", "-1",
                   "--h", "1", "--N", "1,2", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert row["optimum"] == ""
        assert row["error"] == "SolverFailure: verification failed: duality gap 1.0; injected"


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("hypopep ")]
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        rc, _, err = run(capsys, *shlex.split(line)[1:])
        assert rc == 0, (line, err)
