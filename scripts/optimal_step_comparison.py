#!/usr/bin/env python3
"""Compare the proven optimal constant step with the conjectured
asymptotic one across curvature ratios, and the resulting per-step
constants. Writes results/optimal_step.csv."""

import csv
import pathlib

from hypopep.rates import (
    OptimalStepMode,
    one_step_p,
    optimal_step,
    step_threshold,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main():
    OUT.mkdir(exist_ok=True)
    path = OUT / "optimal_step.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kappa", "h_bar", "h_star_theorem", "branch",
                    "p_at_h_star", "h_star_asymptotic"])
        for k in range(1, 301):
            kappa = -k / 50.0  # 0.02 steps down to -6
            thm = optimal_step(kappa)
            asym = optimal_step(kappa, OptimalStepMode.asymptotic)
            w.writerow([
                f"{kappa:.17g}",
                f"{step_threshold(kappa):.17g}",
                f"{thm.h_star:.17g}",
                thm.branch.value,
                f"{one_step_p(thm.h_star, kappa):.17g}",
                f"{asym.h_star:.17g}",
            ])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
