"""The committed results/ tables regenerate from the current solver."""

import csv
import pathlib

import pytest

from hypopep.core import NumeratorKind, StepSchedule, validate_class
from hypopep.pep import PepProblem, build_sdp
from hypopep.sdpsolver import SolveStatus, solve

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


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
