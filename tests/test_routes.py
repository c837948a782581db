"""Differential test of the three routes to the worst case on random draws.

For κ in [-3, 0), schedules with every h in (0, 1] and N <= 6, the
closed-form rate is tight. So ``nstep_bound``, the PEP optimum and the
constructed worst-case function (``verify_tightness``) must agree. The rate
is also tight for schedules with every h in [1, h̄(κ)] and for the
unbounded-below class (t = 0) with every h in (0, 1]; there the rate and
the PEP must agree (the construction covers neither). For schedules that
straddle h = 1 the rate is only an upper bound, so the PEP optimum must not
exceed it. The draws come from a fixed seed and are derandomized, and the
example database is off, so every run checks the same cases.
"""

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hypopep.core import CurvatureClass, NumeratorKind, ScaleOverflow, StepSchedule
from hypopep.pep import PepProblem, build_sdp
from hypopep.rates import nstep_bound, step_threshold
from hypopep.sdpsolver import SolveStatus, solve, verify_solution
from hypopep.worstcase import verify_tightness

REL_TOL = 1e-8  # PEP optimum against the analytic rate

# Known defect (d): with a step below H_TINY the PEP is badly scaled (with
# the gap to the last iterate its optimum grows like 1/h). The IPM then
# stalls and reports MaxIter, or stops at Optimal with the optimum up to
# DEFECT_D_REL off the rate. Seen for steps from 5.6e-4 down, both kinds.
H_TINY = 1e-3
DEFECT_D_REL = 1e-6
DEFECT_D = "defect (d): PEP route misses 1e-8 on schedules with a step below 1e-3"

# Known defect (g): with a step just above 1 the IPM stalls near the change
# of the active rows at h = 1. Its best iterate has residuals between TOL
# and 100 TOL, so ``solve`` returns it as Optimal; it verifies but is up to
# DEFECT_G_REL off the rate. Seen for h - 1 from 3e-8 to 1e-6, both kinds.
H_NEAR_ONE = 1e-5
DEFECT_G_REL = 1e-6
DEFECT_G = "defect (g): PEP route misses 1e-8 on schedules with a step in (1, 1 + 1e-5]"

draws = st.tuples(
    st.floats(min_value=-3.0, max_value=0.0, exclude_max=True),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=6),
    st.sampled_from(list(NumeratorKind)),
)


def _routes(kappa, steps, kind, cls=None):
    """The problem, the rate, and (status, verified, signed relative error
    (PEP - rate) / rate) of the PEP route, in the class ``cls`` or else in [kappa, 1]."""
    cls = cls or CurvatureClass(mu=kappa, L=1.0)
    sched = StepSchedule(tuple(steps))
    bound = nstep_bound(cls, sched, 1.0, kind).bound
    sdp = build_sdp(PepProblem(cls, sched, 1.0, kind))
    sol = solve(sdp)
    pep = (sol.status, verify_solution(sdp, sol).all_pass, (sol.objective - bound) / bound)
    return cls, sched, bound, pep


def _assert_pep_agrees(steps, status, verified, rel, below_only=False):
    """The PEP route matches the rate (with ``below_only``, does not exceed
    it), or fails with the signature of defect (d) or (g)."""
    if not below_only:
        rel = abs(rel)
    if status == SolveStatus.Optimal and verified and rel <= REL_TOL:
        return
    info = (status, verified, rel)
    if min(steps) < H_TINY:  # defect (d)
        assert status == SolveStatus.MaxIter or (verified and rel <= DEFECT_D_REL), info
    elif any(1.0 < h <= 1.0 + H_NEAR_ONE for h in steps):  # defect (g)
        assert status == SolveStatus.Optimal and verified and rel <= DEFECT_G_REL, info
    else:
        pytest.fail(f"PEP route disagrees with the rate: {info}")


@seed(20220301)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(draws)
def test_rate_pep_and_construction_agree(draw):
    kappa, steps, kind = draw
    try:
        cls, sched, bound, (status, verified, rel) = _routes(kappa, steps, kind)
    except ScaleOverflow:
        # 2 L delta / D overflows a double when the steps' sum is subnormal
        # (gap to the last iterate); the construction refuses it the same way
        assert kind == NumeratorKind.gap_to_last and sum(steps) < 1e-300, draw
        with pytest.raises(ScaleOverflow):
            verify_tightness(CurvatureClass(mu=kappa, L=1.0), StepSchedule(tuple(steps)), 1.0, kind)
        return
    _assert_pep_agrees(steps, status, verified, rel)

    rep = verify_tightness(cls, sched, 1.0, kind)
    assert math.isclose(rep.U**2, bound, rel_tol=1e-12)
    assert rep.passed, rep


@seed(20220302)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.tuples(
    st.floats(min_value=-3.0, max_value=0.0, exclude_max=True),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    st.sampled_from(list(NumeratorKind)),
))
def test_rate_and_pep_agree_with_every_step_in_one_to_hbar(draw):
    # each step is 1 + u (h_bar - 1) for a drawn u in [0, 1]
    kappa, us, kind = draw
    h_bar = step_threshold(kappa)
    steps = [1.0 + u * (h_bar - 1.0) for u in us]
    _assert_pep_agrees(steps, *_routes(kappa, steps, kind)[3])


@seed(20220303)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=6),
    st.sampled_from(list(NumeratorKind)),
))
def test_rate_and_pep_agree_unbounded_below(draw):
    steps, kind = draw
    cls = CurvatureClass(mu=0.0, L=1.0, unbounded_below=True)
    try:
        pep = _routes(None, steps, kind, cls)[3]
    except ScaleOverflow:  # a subnormal step sum, as in the bounded draws
        assert kind == NumeratorKind.gap_to_last and sum(steps) < 1e-300, draw
        return
    _assert_pep_agrees(steps, *pep)


@st.composite
def straddling_draws(draw):
    """κ in [-3, 0), 2 <= N <= 6, some steps in (0, 1] and the rest in [1, h̄(κ)],
    in any order."""
    kappa = draw(st.floats(min_value=-3.0, max_value=0.0, exclude_max=True))
    n = draw(st.integers(min_value=2, max_value=6))
    short = draw(st.integers(min_value=1, max_value=n - 1))
    h_bar = step_threshold(kappa)
    steps = [draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)) for _ in range(short)]
    steps += [1.0 + draw(st.floats(min_value=0.0, max_value=1.0)) * (h_bar - 1.0)
              for _ in range(n - short)]
    return kappa, draw(st.permutations(steps)), draw(st.sampled_from(list(NumeratorKind)))


@seed(20220304)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(straddling_draws())
def test_pep_stays_below_the_rate_on_schedules_that_straddle_one(draw):
    kappa, steps, kind = draw
    _assert_pep_agrees(steps, *_routes(kappa, steps, kind)[3], below_only=True)


@pytest.mark.xfail(strict=True, reason=DEFECT_D)
@pytest.mark.parametrize("draw", [
    (-1.0, (1e-4,), NumeratorKind.gap_to_last),
    (-0.3, (1e-5,), NumeratorKind.gap_to_last),
    (-1.0, (1e-8, 1.0), NumeratorKind.gap_to_optimal),
])
def test_pep_route_with_a_tiny_step(draw):
    status, verified, rel = _routes(*draw)[3]
    assert status == SolveStatus.Optimal and verified and abs(rel) <= REL_TOL, \
        (status, verified, rel)


@pytest.mark.xfail(strict=True, reason=DEFECT_G)
@pytest.mark.parametrize("draw", [
    (-1.0, (1.0000000872672568,), NumeratorKind.gap_to_last),
    (-3.0, (1.000001,), NumeratorKind.gap_to_last),
    (-2.0, (1.0000003,) * 3, NumeratorKind.gap_to_optimal),
])
def test_pep_route_with_a_step_just_above_one(draw):
    status, verified, rel = _routes(*draw)[3]
    assert status == SolveStatus.Optimal and verified and abs(rel) <= REL_TOL, \
        (status, verified, rel)
