import contextlib
import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypopep import cli, pep
from hypopep.cli import main, parse_steps
from hypopep.pep import IndefiniteGram, InterpolationFailure
from hypopep.rates import KAPPA_MIN
from hypopep.sdpsolver import VerificationReport


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
    assert "BoundOverflow" in err and "bound" not in out


def test_optstep_command(capsys):
    rc, out, _ = run(capsys, "optstep", "--kappa", "-1")
    assert rc == 0
    assert abs(float(grab(out, "h_star")) - 2.0 / math.sqrt(3.0)) < 1e-10


def test_pep_command_matches_analytic(capsys, tmp_path):
    trip = tmp_path / "t.json"
    rc, out, _ = run(capsys, "pep", "--kappa", "-1", "--steps", "1", "--kind", "opt",
                     "--emit-triplets", str(trip))
    assert rc == 0
    assert abs(float(grab(out, "optimum")) - 0.8) < 1e-6
    assert float(grab(out, "rel_error")) < 1e-6
    data = json.loads(trip.read_text())
    assert len(data["triplets"]) == 3


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

    monkeypatch.setattr(cli, "extract_triplets", fail)
    rc, _, err = run(capsys, "pep", "--kappa", "-1", "--steps", "1",
                     "--emit-triplets", str(tmp_path / "t.json"))
    assert rc == code
    assert err.strip() == f"error: {exc.__name__}: injected"


def test_tightness_pass(capsys):
    for args in (("--kappa=-2", "--L", "2", "--delta", "2"), ("--kappa=-1e3",)):
        rc, out, _ = run(capsys, "tightness", *args, "--steps", "1,0.5,0.75", "--kind", "opt")
        assert rc == 0, (args, out)
        assert "PASS" in out


def test_worstcase_exports(capsys, tmp_path):
    csv_out = tmp_path / "w.csv"
    json_out = tmp_path / "w.json"
    rc, out, _ = run(capsys, "worstcase", "--kappa", "-1", "--steps", "1,0.5",
                     "--kind", "opt", "--csv-out", str(csv_out),
                     "--json-out", str(json_out), "--samples", "20")
    assert rc == 0
    assert len(csv_out.read_text().strip().splitlines()) == 21
    assert json.loads(json_out.read_text())["kind"] == "gap_to_optimal"


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


def test_sweep_per_point_errors(capsys, tmp_path):
    out = tmp_path / "e.csv"
    rc, _, _ = run(capsys, "sweep", "--target", "rate", "--kappa", "-1",
                   "--h", "1.0,1.9", "--N", "2", "--out", str(out))
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3
    assert "StepAboveThreshold" in rows[2]


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
    rc, out, _ = run(capsys, "fit-r", "--kappa", "-1", "--h", "1.8", "--N", "3:6")
    assert rc == 0
    assert float(grab(out, "r")) > 0.0


def test_fit_r_branch_mismatch_exit_code(capsys):
    # h = 0.5 is below h_bar, so the optima do not grow at the third-regime slope
    rc, out, err = run(capsys, "fit-r", "--kappa=-1", "--h", "0.5", "--N", "2:5")
    assert rc == 4
    assert "r " not in out
    assert err.startswith("error: BranchMismatch: observed slope")


@pytest.mark.parametrize("argv", [
    ("rate", "--kappa", "nan", "--steps", "0.5"),
    ("rate", "--kappa", "-1", "--L", "inf", "--steps", "0.5"),
    ("rate", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
    ("worstcase", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
    ("optstep", "--kappa", "nan"),
    ("optstep", "--kappa=-inf"),
    ("tightness", "--kappa", "-1", "--delta", "nan", "--steps", "0.5"),
])
def test_non_finite_input_exit_code(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == "" and err.startswith("error: ")


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


@st.composite
def _cli_argv(draw):
    cmd = draw(st.sampled_from(["rate", "rate --unbounded-below", "optstep theorem",
                                "optstep asymptotic", "tightness", "worstcase"]))
    name, _, extra = cmd.partition(" ")
    argv = [name, f"--kappa={draw(_kappas)!r}"]
    if name == "optstep":
        return argv + ["--mode", extra]
    steps = ",".join(repr(h) for h in draw(_steps))
    argv += [f"--L={draw(_scales)!r}", f"--delta={draw(_scales)!r}", f"--steps={steps}",
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


# log-spaced from -1e6 to -1e308, plus the values that used to end in a traceback
_extreme_kappas = [-(10.0 ** e) for e in range(6, 309, 2)] + [-7.7e7, -5e9, -1.2e16, -1.7e308]


@pytest.mark.parametrize("cmd", [
    ("rate", "--steps=0.5", "--N=3"),
    ("rate", "--steps=1.5,0.3", "--kind=last"),
    ("optstep", "--mode=theorem"),
    ("optstep", "--mode=asymptotic"),
    ("worstcase", "--steps=0.5,0.9"),
    ("tightness", "--steps=0.5,1.0"),
])
def test_extreme_kappa_exit_code(cmd):
    # below KAPPA_MIN a typed error with exit 2, never a traceback
    for kappa in _extreme_kappas:
        argv = [cmd[0], f"--kappa={kappa!r}", *cmd[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if kappa < KAPPA_MIN:
            assert rc == 2 and err.getvalue().startswith("error: KappaBelowFloor: "), argv
        else:
            assert rc in (0, 2), (argv, err.getvalue())
        if rc == 0:
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
