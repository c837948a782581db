#!/usr/bin/env python3
"""Probe the two unproven large-step conjectures against PEP optima.

Solves the worst-case SDPs for constant steps beyond the proven threshold
and tabulates them next to the conjectured values, including the fitted
linear-branch intercept r. Every optimum passes ``verify_solution`` (a
failed solve raises ``SolverFailure``). Writes results/conjecture_probe.csv.
"""

import csv
import pathlib

from hypopep.core import NumeratorKind, StepSchedule, validate_class
from hypopep.pep import PepProblem, solve_pep
from hypopep.rates import (
    conjectured_bound_convex,
    conjectured_bound_third_regime,
    fit_r,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"
KIND = NumeratorKind.gap_to_optimal


def pep_opt(cls, h, n):
    return solve_pep(PepProblem(cls, StepSchedule.constant(h, n), 1.0, KIND)).objective


def main():
    OUT.mkdir(exist_ok=True)
    path = OUT / "conjecture_probe.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "kappa", "h", "N", "pep_optimum", "conjectured", "rel_err", "r"])
        cls0 = validate_class(0.0, 1.0)
        for h in (1.55, 1.6, 1.7, 1.8, 1.9):
            for n in range(1, 7):
                opt = pep_opt(cls0, h, n)
                ref = conjectured_bound_convex(h, n, 1.0, 1.0, KIND).bound
                w.writerow(["convex", 0.0, h, n, f"{opt:.17g}", f"{ref:.17g}",
                            f"{abs(opt - ref) / ref:.3e}", ""])
        for kappa, h in ((-1.0, 1.8), (-0.5, 1.7), (-2.0, 1.9)):
            cls = validate_class(kappa, 1.0)
            data = [(n, pep_opt(cls, h, n)) for n in range(3, 8)]
            res = fit_r(cls, h, data, KIND)
            for n in range(3, 9):
                opt = pep_opt(cls, h, n) if n == 8 else dict(data)[n]
                ref = conjectured_bound_third_regime(h, n, cls, 1.0, res.r, KIND).bound
                w.writerow(["third_regime", kappa, h, n, f"{opt:.17g}", f"{ref:.17g}",
                            f"{abs(opt - ref) / ref:.3e}", f"{res.r:.17g}"])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
