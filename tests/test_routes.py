"""Differential test of the three routes to the worst case on random draws.

For κ in [-3, 0), schedules with every h in (0, 1] and N <= 6, the
closed-form rate is tight. So ``nstep_bound``, the PEP optimum and the
constructed worst-case function (``verify_tightness``) must agree. The
draws come from a fixed seed and are derandomized, and the example
database is off, so every run checks the same cases.
"""

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hypopep.core import CurvatureClass, NumeratorKind, StepSchedule
from hypopep.pep import PepProblem, build_sdp
from hypopep.rates import BoundOverflow, nstep_bound
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

draws = st.tuples(
    st.floats(min_value=-3.0, max_value=0.0, exclude_max=True),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=6),
    st.sampled_from(list(NumeratorKind)),
)


def _routes(kappa, steps, kind):
    """The problem, the rate, and (status, verified, relative error) of the PEP route."""
    cls = CurvatureClass(mu=kappa, L=1.0)
    sched = StepSchedule(tuple(steps))
    bound = nstep_bound(cls, sched, 1.0, kind).bound
    sdp = build_sdp(PepProblem(cls, sched, 1.0, kind))
    sol = solve(sdp)
    pep = (sol.status, verify_solution(sdp, sol).all_pass, abs(sol.objective - bound) / bound)
    return cls, sched, bound, pep


@seed(20220301)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(draws)
def test_rate_pep_and_construction_agree(draw):
    kappa, steps, kind = draw
    try:
        cls, sched, bound, (status, verified, rel) = _routes(kappa, steps, kind)
    except BoundOverflow:
        # 2 L delta / D overflows a double when the steps' sum is subnormal
        # (gap to the last iterate); the construction refuses it the same way
        assert kind == NumeratorKind.gap_to_last and sum(steps) < 1e-300, draw
        with pytest.raises(BoundOverflow):
            verify_tightness(CurvatureClass(mu=kappa, L=1.0), StepSchedule(tuple(steps)), 1.0, kind)
        return
    agree = status == SolveStatus.Optimal and verified and rel <= REL_TOL
    if min(steps) >= H_TINY:
        assert agree, (status, verified, rel)
    elif not agree:  # defect (d): the failure must have its documented signature
        assert status == SolveStatus.MaxIter or (verified and rel <= DEFECT_D_REL), (status, verified, rel)

    rep = verify_tightness(cls, sched, 1.0, kind)
    assert math.isclose(rep.U**2, bound, rel_tol=1e-12)
    assert rep.passed, rep


@pytest.mark.xfail(strict=True, reason=DEFECT_D)
@pytest.mark.parametrize("draw", [
    (-1.0, (1e-4,), NumeratorKind.gap_to_last),
    (-0.3, (1e-5,), NumeratorKind.gap_to_last),
    (-1.0, (1e-8, 1.0), NumeratorKind.gap_to_optimal),
])
def test_pep_route_with_a_tiny_step(draw):
    status, verified, rel = _routes(*draw)[3]
    assert status == SolveStatus.Optimal and verified and rel <= REL_TOL, (status, verified, rel)
