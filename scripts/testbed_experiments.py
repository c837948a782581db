#!/usr/bin/env python3
"""Run the two testbed problems under several step-size policies.

For each problem and each constant step size, writes a trajectory CSV
into results/ (columns: iter, h, f, grad_norm_sq, running minimum, bound)
so convergence against the certified bound can be plotted.
"""

import dataclasses
import pathlib

import numpy as np

from hypopep.core import NumeratorKind, StepSchedule
from hypopep.gmlab import (
    estimate_f_star,
    export_trajectory_csv,
    make_huber_problem,
    make_logistic_l0_problem,
    run_gm,
)
from hypopep.rates import optimal_step, step_threshold

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"
N_STEPS = 60


def with_f_star(tp):
    f_star = estimate_f_star(tp, n_iter=3000)
    return dataclasses.replace(tp, f_star_known=f_star)


def main():
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(42)
    A = rng.standard_normal((60, 15))
    b = A @ rng.standard_normal(15) + 0.2 * rng.standard_normal(60)
    y = (rng.uniform(size=60) < 0.5).astype(float)

    problems = []
    for target_kappa in (0.0, -0.5, -1.0):
        s = float(np.linalg.eigvalsh(A.T @ A)[-1])
        mu_reg = target_kappa / (1.0 - target_kappa) * s / 1.0
        tp = make_huber_problem(A, b, delta_h=1.0, mu_reg=mu_reg,
                                x0=rng.standard_normal(15))
        problems.append((f"huber_kappa{target_kappa}", tp))
    problems.append(
        ("logistic_l0", make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.1,
                                                 x0=rng.standard_normal(15)))
    )

    for name, tp in problems:
        # a negative lower curvature can make the objective unbounded below;
        # only estimate a minimum value for the convex instances
        kappa = tp.cls.kappa
        kind = NumeratorKind.gap_to_last
        if kappa >= 0.0:
            tp = with_f_star(tp)
            kind = NumeratorKind.gap_to_optimal
        policies = {
            "h1": 1.0,
            "hbar": step_threshold(min(kappa, 0.0)) - 1e-9,
            "hstar": optimal_step(min(kappa, 0.0)).h_star,
        }
        for policy, h in policies.items():
            traj = run_gm(tp, StepSchedule.constant(h, N_STEPS))
            path = OUT / f"testbed_{name}_{policy}.csv"
            export_trajectory_csv(traj, tp, str(path), kind=kind)
            print(f"wrote {path} (min grad^2 {traj.min_grad_sq:.3e})")


if __name__ == "__main__":
    main()
