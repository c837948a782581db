"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line. Criterion 8 probes unproven conjectures and reports
a mismatch without failing the build."""

import math
import warnings

import numpy as np

from hypopep.core import CurvatureClass, NumeratorKind, StepSchedule, validate_class
from hypopep.gmlab import (
    convex_grad_monotonicity,
    estimate_f_star,
    ll_envelope_l0,
    make_huber_problem,
    make_logistic_l0_problem,
    run_gm,
)
from hypopep.interpolation import quadratic_bounds_check
from hypopep.pep import PepProblem, build_sdp
from hypopep.rates import (
    conjectured_bound_convex,
    conjectured_bound_third_regime,
    fit_r,
    kappa_bar,
    nstep_bound,
    one_step_p,
    optimal_step,
    step_threshold,
)
from hypopep.sdpsolver import solve
from hypopep.worstcase import verify_tightness


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    return ok


def _pep_optimum(kappa, h, n, kind=NumeratorKind.gap_to_optimal, L=1.0, delta=1.0):
    cls = validate_class(kappa * L, L)
    sol = solve(build_sdp(PepProblem(cls, StepSchedule.constant(h, n), delta, kind)))
    return sol.objective


def test_criterion_1_threshold_values():
    ok = (
        abs(step_threshold(-1.0) - math.sqrt(3.0)) <= 1e-12
        and abs(step_threshold(0.0) - 1.5) <= 1e-12
    )
    assert _report("criterion 1: step threshold reference values", ok)


def test_criterion_2_optimal_step_recovery():
    e1 = abs(optimal_step(-1.0).h_star - 2.0 / math.sqrt(3.0))
    e2 = abs(kappa_bar() - (-0.1001))
    ok = e1 <= 1e-10 and e2 <= 5e-5
    assert _report("criterion 2: optimal step and branch-crossing ratio", ok,
                   f"(h* err {e1:.1e}, ratio err {e2:.1e})")


def test_criterion_3_sdp_analytic_agreement():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for kappa in (0.0, -0.5, -1.0, -2.0):
            h_bar = step_threshold(kappa)
            for h in (0.5, 1.0, 1.2, min(1.4, h_bar - 0.01)):
                cls = validate_class(kappa, 1.0)
                sched = StepSchedule.constant(h, n)
                opt = _pep_optimum(kappa, h, n)
                ref = nstep_bound(cls, sched, 1.0, NumeratorKind.gap_to_optimal).bound
                worst = max(worst, abs(opt - ref) / ref)
    ok = worst <= 1e-5
    assert _report("criterion 3: SDP optimum matches analytic bound on grid", ok,
                   f"(worst rel err {worst:.1e})")


def test_criterion_4_tightness_attainment():
    cases = [
        (-2.0, 2.0, 2.0, (1.0, 0.5, 0.75)),  # the reference 3-step setup
        (0.0, 1.0, 1.0, (0.25,)),
        (-0.5, 1.0, 1.0, (1.0, 0.5)),
        (-1.0, 1.0, 1.0, (0.75, 0.25, 1.0, 0.5)),
        (-2.0, 1.0, 1.0, (0.5, 0.5, 0.5, 0.5, 0.5)),
        (-0.5, 1.0, 2.0, (1.0, 0.25, 0.75, 0.5, 1.0, 0.25)),
    ]
    ok = True
    worst = 0.0
    for kappa, L, delta, steps in cases:
        for kind in NumeratorKind:
            rep = verify_tightness(
                validate_class(kappa * L, L), StepSchedule(steps), delta, kind, tol=1e-8
            )
            worst = max(worst, rep.iterate_residual, rep.bound_residual,
                        rep.interpolation_violation, rep.gap_residual)
            ok = ok and rep.passed
    assert _report("criterion 4: worst-case construction attains the bound", ok,
                   f"(worst residual {worst:.1e})")


def test_criterion_5_smooth_nonconvex_specialization():
    worst = 0.0
    for h in np.linspace(math.sqrt(3.0) / 200, math.sqrt(3.0), 200):
        expected = 2.0 * h - (h * h / 2.0) * max(1.0, h)
        worst = max(worst, abs(one_step_p(float(h), -1.0) - expected))
    ok = worst <= 1e-12
    assert _report("criterion 5: ratio -1 specialization", ok, f"(max err {worst:.1e})")


def test_criterion_6_one_step_pep_identity():
    worst = 0.0
    for kappa in (-0.5, -1.0):
        h_bar = step_threshold(kappa)
        for h in np.linspace(h_bar / 20, h_bar, 20):
            opt = _pep_optimum(kappa, float(h), 1, NumeratorKind.gap_to_last)
            ref = 2.0 / one_step_p(float(h), kappa)
            worst = max(worst, abs(opt - ref) / ref)
    ok = worst <= 1e-5
    assert _report("criterion 6: one-step SDP identity", ok, f"(worst rel err {worst:.1e})")


def test_criterion_7_convex_tight_rate():
    worst = 0.0
    for n in (1, 2, 3):
        for h in (1.0, 1.25, 1.5):
            opt = _pep_optimum(0.0, h, n)
            ref = 1.0 / (0.5 + h * n)
            worst = max(worst, abs(opt - ref) / ref)
    ok = worst <= 1e-5
    assert _report("criterion 7: convex tight rate", ok, f"(worst rel err {worst:.1e})")


def test_criterion_8_conjecture_probes():
    # probes of unproven conjectures: mismatches are reported, not failed
    worst_a = 0.0
    for h in (1.6, 1.8):
        for n in range(1, 6):
            opt = _pep_optimum(0.0, h, n)
            ref = conjectured_bound_convex(h, n, 1.0, 1.0, NumeratorKind.gap_to_optimal).bound
            worst_a = max(worst_a, abs(opt - ref) / ref)
    ok_a = worst_a <= 1e-4
    _report("criterion 8a: convex large-step conjecture", ok_a,
            f"(worst rel err {worst_a:.1e})")

    worst_b = 0.0
    for kappa, h in ((-1.0, 1.8), (-0.5, 1.7)):
        cls = validate_class(kappa, 1.0)
        data = [(n, _pep_optimum(kappa, h, n)) for n in range(3, 8)]
        res = fit_r(cls, h, data, NumeratorKind.gap_to_optimal)
        pred = conjectured_bound_third_regime(
            h, 8, cls, 1.0, res.r, NumeratorKind.gap_to_optimal
        ).bound
        opt8 = _pep_optimum(kappa, h, 8)
        worst_b = max(worst_b, abs(pred - opt8) / opt8)
    ok_b = worst_b <= 1e-3
    _report("criterion 8b: third-regime intercept prediction", ok_b,
            f"(worst rel err {worst_b:.1e})")
    if not (ok_a and ok_b):
        warnings.warn(
            f"conjecture probe mismatch: convex {worst_a:.2e}, third-regime {worst_b:.2e}"
        )


def test_criterion_9_testbed_soundness():
    rng = np.random.default_rng(9)
    lam, sig = 2.0, 1.0
    env_cls = CurvatureClass(mu=-1.0 / sig, L=1.0 / (lam - sig))
    pairs = [(np.array([a]), np.array([b]))
             for a, b in rng.uniform(-4.0, 4.0, size=(200, 2))]
    env_ok = quadratic_bounds_check(
        lambda x: (float(ll_envelope_l0(x, lam, sig)[0][0]), ll_envelope_l0(x, lam, sig)[1]),
        env_cls, pairs, tol=1e-9,
    )
    t = math.sqrt(2 * lam)
    cont_ok = True
    for b in ((1 - sig / lam) * t, t):
        v0, g0 = ll_envelope_l0(np.array([b - 1e-9]), lam, sig)
        v1, g1 = ll_envelope_l0(np.array([b + 1e-9]), lam, sig)
        cont_ok = cont_ok and abs(v0[0] - v1[0]) < 1e-8 and abs(g0[0] - g1[0]) < 1e-8

    A = rng.standard_normal((15, 5))
    huber = make_huber_problem(A, rng.standard_normal(15), delta_h=0.9, mu_reg=-0.2)
    y = (rng.uniform(size=15) < 0.5).astype(float)
    logit = make_logistic_l0_problem(A, y, lam, sig, reg_weight=0.1)
    grad_ok = True
    for tp in (huber, logit):
        for _ in range(50):
            x = rng.standard_normal(5)
            _, g = tp.oracle(x)
            fd = np.array([
                (tp.oracle(x + e)[0] - tp.oracle(x - e)[0]) / 2e-6
                for e in np.eye(5) * 1e-6
            ])
            grad_ok = grad_ok and (
                np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5
            )

    bound_ok = True
    for tp in (huber, logit):
        f_star = estimate_f_star(tp, n_iter=400)
        sched = StepSchedule(tuple(rng.uniform(0.2, 1.2, size=6)))
        traj = run_gm(tp, sched)
        delta = traj.iterates[0].f - f_star
        if delta > 0:
            bound = nstep_bound(tp.cls, sched, delta, NumeratorKind.gap_to_optimal).bound
            bound_ok = bound_ok and traj.min_grad_sq <= bound + 1e-9

    ok = env_ok and cont_ok and grad_ok and bound_ok
    assert _report(
        "criterion 9: testbed soundness", ok,
        f"(envelope {env_ok}, continuity {cont_ok}, gradients {grad_ok}, bounds {bound_ok})",
    )


def test_criterion_10_monotonicity_suite():
    rng = np.random.default_rng(10)
    ok = True
    for trial in range(20):
        A = rng.standard_normal((8, 3))
        if trial % 2 == 0:
            tp = make_huber_problem(A, rng.standard_normal(8), delta_h=1.0,
                                    x0=rng.standard_normal(3))
        else:
            y = (rng.uniform(size=8) < 0.5).astype(float)
            tp = make_logistic_l0_problem(A, y, 2.0, 1.0, reg_weight=0.0,
                                          x0=rng.standard_normal(3))
        sched = StepSchedule(tuple(rng.uniform(0.05, 1.95, size=8)))
        traj = run_gm(tp, sched)
        rep = convex_grad_monotonicity(traj, tp.cls, tol=1e-10)
        ok = ok and rep.applicable and rep.passed
    assert _report("criterion 10: convex gradient monotonicity", ok)
