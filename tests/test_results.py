"""The committed results/ tables regenerate from the current solver."""

import csv
import importlib.util
import pathlib

import pytest

from hypopep.core import NumeratorKind, StepSchedule, validate_class
from hypopep.pep import PepProblem, build_sdp
from hypopep.sdpsolver import SolveStatus, solve

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def _conjecture_rows():
    with open(RESULTS / "conjecture_probe.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "row", _conjecture_rows(), ids=lambda r: f"{r['family']}-k{r['kappa']}-h{r['h']}-N{r['N']}"
)
def test_conjecture_probe_optima_regenerate(row):
    cls = validate_class(float(row["kappa"]), 1.0)
    sched = StepSchedule.constant(float(row["h"]), int(row["N"]))
    sol = solve(build_sdp(PepProblem(cls, sched, 1.0, NumeratorKind.gap_to_optimal)))
    assert sol.status == SolveStatus.Optimal
    committed = float(row["pep_optimum"])
    assert abs(sol.objective - committed) <= 1e-9 * abs(committed)


def _run_script(name, out):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = out
    module.main()


def test_conjecture_probe_regenerates(tmp_path):
    # a fresh run differs from the committed optima in their last digits, so
    # cells are compared to 1e-9; conjectured and r go through the closed forms
    _run_script("conjecture_probe", tmp_path)
    with open(tmp_path / "conjecture_probe.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    committed = _conjecture_rows()
    assert len(rows) == len(committed)
    for new, old in zip(rows, committed):
        assert [new[c] for c in ("family", "kappa", "h", "N")] == \
            [old[c] for c in ("family", "kappa", "h", "N")]
        for c in ("pep_optimum", "conjectured", "r"):
            if old[c] == "":
                assert new[c] == "", (c, old)
            else:
                assert abs(float(new[c]) - float(old[c])) <= 1e-9 * abs(float(old[c])), (c, old)
        assert abs(float(new["rel_err"]) - float(old["rel_err"])) <= 1e-9, old


# Scripts whose CSVs are deterministic, with the number of files each writes.
SCRIPTS = {"rate_sweep": 2, "optimal_step_comparison": 1, "testbed_experiments": 12}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_csvs_regenerate_byte_identical(name, tmp_path):
    _run_script(name, tmp_path)
    written = sorted(tmp_path.iterdir())
    assert len(written) == SCRIPTS[name]
    for path in written:
        assert path.read_bytes() == (RESULTS / path.name).read_bytes(), path.name
