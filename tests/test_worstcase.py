import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hypopep.core import (
    CurvatureClass,
    NumeratorKind,
    PositiveKappa,
    ScaleOverflow,
    StepSchedule,
    ValidationError,
    validate_class,
)
from hypopep.interpolation import quadratic_bounds_check
from hypopep.rates import nstep_bound
from hypopep.worstcase import StepAboveOne, WorstCaseFunction, build_worst_case, verify_tightness


def test_reference_U_star():
    w = build_worst_case(
        validate_class(-1.0, 1.0), StepSchedule((1.0,)), 1.0, NumeratorKind.gap_to_optimal
    )
    assert abs(w.U - math.sqrt(0.8)) < 1e-14


@pytest.mark.parametrize("kind", list(NumeratorKind))
def test_U_and_values_come_from_the_rate(kind):
    # U^2 is the rate bound and f_i spends U^2/(2L) p_j per step, to the bit
    cls, sched, delta = validate_class(-1.3, 2.5), StepSchedule((0.3, 1.0, 0.77, 0.05)), 1.7
    res = nstep_bound(cls, sched, delta, kind)
    w = build_worst_case(cls, sched, delta, kind)
    assert w.U == math.sqrt(res.bound)
    step = w.U * w.U / (2.0 * cls.L)
    assert w.fs == tuple(delta - step * sum(res.per_step_p[:i]) for i in range(sched.n + 1))


def test_optimal_variant_minimizer_at_origin():
    w = build_worst_case(
        validate_class(-2.0, 2.0), StepSchedule((1.0, 0.5)), 2.0, NumeratorKind.gap_to_optimal
    )
    f0, g0 = w.eval(0.0)
    assert f0 == 0.0 and g0 == 0.0
    # values are nonnegative in a neighborhood
    for x in np.linspace(-1.0, 1.0, 41):
        assert w.eval(float(x))[0] >= -1e-12


def test_eval_at_iterates():
    cls = validate_class(-4.0, 2.0)
    sched = StepSchedule((1.0, 0.5, 0.75))
    for kind in NumeratorKind:
        w = build_worst_case(cls, sched, 2.0, kind)
        for x, f in zip(w.xs, w.fs):
            val, grad = w.eval(x)
            assert abs(val - f) < 1e-12
            assert abs(grad - w.U) < 1e-12


def test_gap_consumed_exactly():
    cls = validate_class(-1.0, 1.0)
    sched = StepSchedule((0.5, 1.0, 0.25))
    w_last = build_worst_case(cls, sched, 1.5, NumeratorKind.gap_to_last)
    assert abs(w_last.fs[0] - w_last.fs[-1] - 1.5) < 1e-12
    w_opt = build_worst_case(cls, sched, 1.5, NumeratorKind.gap_to_optimal)
    assert abs(w_opt.fs[0] - 1.5) < 1e-12  # f_* = 0


def test_c1_at_breakpoints():
    # derivative limits from adjacent pieces agree exactly at every breakpoint
    cls = validate_class(-2.0, 1.0)
    w = build_worst_case(
        cls, StepSchedule((0.7, 0.3, 1.0, 0.5)), 1.5, NumeratorKind.gap_to_last
    )
    for left, right in zip(w.pieces, w.pieces[1:]):
        b = left.hi
        fl, gl = left.eval(b)
        fr, gr = right.eval(b)
        assert abs(fl - fr) < 1e-12
        assert abs(gl - gr) < 1e-12


def test_convex_degeneration():
    # kappa = 0 collapses the inflection points onto the iterates and the
    # middle pieces become linear
    w = build_worst_case(
        validate_class(0.0, 1.0), StepSchedule.constant(0.8, 5), 1.0, NumeratorKind.gap_to_optimal
    )
    assert all(abs(a - b) < 1e-14 for a, b in zip(w.x_bars, w.xs))
    middle = [p for p in w.pieces if p.curvature == 0.0]
    assert len(middle) == 5
    assert abs(w.U**2 - 2.0 / 9.0) < 1e-14  # 2 L delta / (1 + sum 2h)


def test_step_above_one_rejected():
    with pytest.raises(StepAboveOne):
        build_worst_case(
            validate_class(-1.0, 1.0), StepSchedule((1.2,)), 1.0, NumeratorKind.gap_to_last
        )


def test_class_membership_dense_pairs():
    cls = validate_class(-2.0, 1.0)
    w = build_worst_case(
        cls, StepSchedule((0.7, 0.3, 1.0, 0.5)), 1.5, NumeratorKind.gap_to_last
    )
    rng = np.random.default_rng(2)
    lo, hi = min(w.xs) - 2.0, max(w.xs) + 2.0
    pairs = [
        (np.array([a]), np.array([b]))
        for a, b in rng.uniform(lo, hi, size=(200, 2))
    ]
    ok = quadratic_bounds_check(
        lambda x: w.eval(float(x[0])),
        cls,
        pairs,
        tol=1e-9,
    )
    assert ok


def test_nesterov_limit_surrogate():
    # very negative kappa approaches the curvature-unbounded value
    w = build_worst_case(
        validate_class(-1e6, 1.0), StepSchedule((0.5,)), 1.0, NumeratorKind.gap_to_optimal
    )
    limit = 2.0 / (1.0 + 0.75)
    assert abs(w.U**2 - limit) / limit < 1e-4


# (L, delta) far from 1; at the last two |x_i - x_j|^2 ~ delta / L overflows a double
SCALES = ((2.0, 2.0), (1e-8, 1e6), (1e-200, 1e200), (1e-300, 1e300))


def test_tightness_grid():
    kinds = list(NumeratorKind)
    schedules = [
        (0.25,),
        (1.0, 0.5),
        (0.75, 0.25, 1.0),
        (0.5, 0.5, 0.5, 0.5),
        (1.0, 0.75, 0.5, 0.25, 1.0),
        (0.25, 1.0, 0.75, 0.5, 0.25, 1.0),
    ]
    for kappa in (0.0, -0.5, -1.0, -2.0, -5.0):
        for steps in schedules:
            for kind in kinds:
                rep = verify_tightness(
                    validate_class(kappa, 1.0), StepSchedule(steps), 1.0, kind, tol=1e-8
                )
                assert rep.passed, (kappa, steps, kind, rep)
                # the check runs on the unit construction, so it passes where
                # |x_i - x_j|^2 overflows in user units; U is sqrt(L delta) U_unit
                for L, delta in SCALES:
                    scaled = verify_tightness(
                        validate_class(kappa * L, L), StepSchedule(steps), delta, kind, tol=1e-8
                    )
                    assert scaled.passed, (kappa, steps, kind, L, delta, scaled)
                    assert math.isclose(scaled.U, math.sqrt(L * delta) * rep.U, rel_tol=1e-14)
    # long horizons, where a float gradient run from x_0 would drift off the
    # construction by a factor |1 - h kappa| per step on a concave piece
    long_steps = tuple(np.random.default_rng(0).uniform(0.05, 1.0, 200).tolist())
    for kappa in (-0.5, -3.0, -1e3):
        for kind in kinds:
            rep = verify_tightness(validate_class(kappa, 1.0), StepSchedule(long_steps), 1.0, kind)
            assert rep.passed, (kappa, kind, rep)


def test_verify_tightness_evaluates_once_per_iterate(monkeypatch):
    calls = []
    original = WorstCaseFunction.eval

    def counting_eval(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(WorstCaseFunction, "eval", counting_eval)
    sched = StepSchedule((0.3, 1.0, 0.6, 0.9, 0.2))
    for kind in NumeratorKind:
        calls.clear()
        rep = verify_tightness(validate_class(-1.0, 1.0), sched, 1.0, kind)
        assert rep.passed
        assert len(calls) == sched.n + 1


def test_tightness_keeps_its_teeth_at_large_delta(monkeypatch):
    # the correct construction passes at delta = 1e7, and at the SCALES; the
    # check runs on the unit construction (L = delta = 1), where one value off
    # by 1e-6 (1e-6 delta in user units) breaks interpolation and only
    # interpolation
    sched, kind = StepSchedule((0.5, 0.5)), NumeratorKind.gap_to_optimal
    x1 = build_worst_case(validate_class(-2.0, 1.0), sched, 1.0, kind).xs[1]
    original = WorstCaseFunction.eval

    def perturbed(self, x):
        f, g = original(self, x)
        return (f + 1e-6 if x == x1 else f), g

    for L, delta in ((1.0, 1e7), *SCALES):
        cls = validate_class(-2.0 * L, L)  # kappa is exactly -2
        assert verify_tightness(cls, sched, delta, kind).passed
        monkeypatch.setattr(WorstCaseFunction, "eval", perturbed)
        rep = verify_tightness(cls, sched, delta, kind)
        monkeypatch.undo()
        assert not rep.passed
        assert rep.interpolation_violation > rep.tol
        assert max(rep.iterate_residual, rep.bound_residual, rep.gap_residual) <= rep.tol


def test_construction_requires_kappa_at_most_zero():
    with pytest.raises(PositiveKappa):
        build_worst_case(CurvatureClass(0.5, 1.0), StepSchedule((0.5,)), 1.0,
                         NumeratorKind.gap_to_last)


def _refuse(name):
    raise ValueError(f"not strict JSON: {name}")


def test_json_and_csv_export(tmp_path):
    w = build_worst_case(
        validate_class(-1.0, 1.0), StepSchedule((1.0, 0.5)), 1.0, NumeratorKind.gap_to_optimal
    )
    obj = json.loads(w.to_json(), parse_constant=_refuse)  # strict JSON
    assert obj["kind"] == "gap_to_optimal"
    assert len(obj["pieces"]) == len(w.pieces)
    # the tail caps' infinite ends are null
    assert obj["pieces"][0]["lo"] is None and obj["pieces"][-1]["hi"] is None
    assert obj["pieces"][0]["hi"] == w.pieces[0].hi and obj["pieces"][-1]["lo"] == w.pieces[-1].lo
    path = tmp_path / "samples.csv"
    w.sample_csv(str(path), num=50)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,f,grad"
    assert len(rows) == 51
    w.sample_csv(str(path), num=0)
    assert path.read_text().splitlines() == ["x,f,grad"]
    with pytest.raises(ValidationError):
        w.sample_csv(str(path), num=-1)


def test_eval_matches_linear_scan_lookup():
    # eval bisects breakpoints computed once; a linear scan over the pieces
    # must pick the same piece everywhere
    rng = np.random.default_rng(2)
    cls = validate_class(-1.5, 1.0)
    sched = StepSchedule(tuple(rng.uniform(0.05, 1.0, size=200)))
    for kind in NumeratorKind:
        w = build_worst_case(cls, sched, 1.0, kind)
        lo, hi = w.xs[-1] - 1.0, w.xs[0] + 1.0
        points = [*w.xs, *w.x_bars, *(p.hi for p in w.pieces[:-1]), *rng.uniform(lo, hi, 500)]
        for x in points:
            idx = min(sum(p.hi < x for p in w.pieces), len(w.pieces) - 1)
            assert w.eval(x) == w.pieces[idx].eval(float(x))


_log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@seed(20220306)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(
    st.one_of(st.just(-math.inf), st.floats(min_value=8.0, max_value=308.0).map(lambda u: -(10.0**u))),
    st.integers(min_value=1, max_value=200).flatmap(lambda n: st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=n, max_size=n)),
    st.sampled_from(list(NumeratorKind)),
    _log_uniform,
    _log_uniform,
))
def test_tight_at_every_kappa_down_to_minus_inf(draw):
    # the concave pieces are t h U / L wide and vanish as kappa falls; the
    # construction stays tight to the last bits, and at t = 0 only the
    # curvature-L pieces remain
    kappa, steps, kind, L, delta = draw
    cls, sched = CurvatureClass(mu=kappa * L, L=L), StepSchedule(tuple(steps))
    try:
        bound = nstep_bound(cls, sched, delta, kind).bound
    except ScaleOverflow:  # 2 L delta / D overflows a double for a subnormal step sum
        assert kind == NumeratorKind.gap_to_last and sum(steps) < 1e-300, draw
        return
    rep = verify_tightness(cls, sched, delta, kind)
    residuals = (rep.iterate_residual, rep.bound_residual, rep.interpolation_violation,
                 rep.gap_residual)
    assert rep.passed and max(residuals) <= 1e-15, rep
    assert math.isclose(rep.U**2, bound, rel_tol=1e-12), (rep.U**2, bound)
    if cls.mu == -math.inf:
        assert all(p.curvature == L for p in build_worst_case(cls, sched, delta, kind).pieces)
