import json
import math

import numpy as np
import pytest

from hypopep.core import (
    BadStepSchedule,
    CurvatureClass,
    DimensionMismatch,
    MuAboveL,
    NonFiniteTriplet,
    NonPositiveL,
    NumeratorKind,
    OracleTriplet,
    PositiveKappa,
    StepSchedule,
    ScaleOverflow,
    TripletSet,
    ValidationError,
    to_user_units,
    user_units,
    validate_class,
)


def test_class_accepts_hypoconvex():
    cls = validate_class(-2.0, 1.0)
    assert cls.kappa == -2.0


def test_class_rejects_bad_L():
    with pytest.raises(NonPositiveL):
        validate_class(-1.0, 0.0)
    with pytest.raises(NonPositiveL):
        validate_class(-1.0, -3.0)


def test_class_rejects_positive_mu():
    with pytest.raises(PositiveKappa):
        validate_class(0.5, 1.0)


def test_class_rejects_mu_above_L():
    with pytest.raises(MuAboveL):
        CurvatureClass(mu=2.0, L=1.0)
    with pytest.raises(MuAboveL):  # t = 1 / (1 - kappa) has no value at mu = L
        CurvatureClass(mu=1.0, L=1.0)


def test_user_units_refuses_a_subnormal_answer():
    # a subnormal keeps only some digits of an answer whose unit-scale value is normal
    with pytest.raises(ScaleOverflow):
        user_units(8e-321, 0.8, "the optimum", 1e-160, 1e-160)
    with pytest.raises(ScaleOverflow):
        user_units(0.0, 0.8, "the optimum", 1e-300, 1e-300)
    assert user_units(2.2250738585072014e-308, 0.8, "the optimum", 1e-154, 1e-154) > 0.0
    assert user_units(5e-324, 5e-324, "an entry", 1.0, 1.0) == 5e-324


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_user_units_takes_an_array_as_one_answer():
    unit = np.array([1.0, -0.5, 2.2e-16])
    # refused where the largest entry is subnormal or 0 and the unit's largest is not
    with pytest.raises(ScaleOverflow):
        to_user_units(unit, "f", "the values", 1e300, 1e-310)
    with pytest.raises(ScaleOverflow):
        user_units(np.zeros(3), unit, "the values", 1.0, 1.0)
    # refused where any entry is not finite: an overflow, or inf times a unit 0
    with pytest.raises(ScaleOverflow):
        to_user_units(unit, "g2", "the values", 1e300, 1e300)
    with pytest.raises(ScaleOverflow):
        to_user_units([1.0, 0.0], "x", "the iterates", 5e-324, 1.7e308)
    with pytest.raises(ScaleOverflow):
        user_units(np.array([1.0, np.nan]), np.array([1.0, 2.0]), "the values", 1.0, 1.0)
    # accepted where a subnormal entry is not the largest: delta times an exact 0's rounding noise
    values = to_user_units(unit, "f", "the values", 1.0, 3e-308)
    assert values[2] < 2.2250738585072014e-308 and (values == 3e-308 * unit).all()
    assert (user_units(np.zeros(2), np.zeros(2), "the values", 1.0, 1.0) == 0.0).all()


@pytest.mark.parametrize("L, delta", [(1.0, 1.0), (3.0, 0.7), (1e200, 1e-200), (1e-200, 1e200)])
def test_each_degree_maps_by_its_hand_written_factor(L, delta):
    unit = np.array([1.0, -0.3, 1.7])
    for degree, factor in (("x", math.sqrt(delta) / math.sqrt(L)),
                           ("g", math.sqrt(L) * math.sqrt(delta)),
                           ("f", delta),
                           ("g2", L * delta)):
        assert to_user_units(1.0, degree, degree, L, delta) == factor
        assert to_user_units(0.8, degree, degree, L, delta) == factor * 0.8
        assert (to_user_units(unit, degree, degree, L, delta) == factor * unit).all()


def test_mu_minus_inf_has_kappa_minus_inf_and_t_zero():
    # the class with only the upper bound L is one value of the class: t = 1 / (1 - kappa) = 0
    cls = validate_class(-math.inf, 1.0)
    assert cls.kappa == -math.inf and cls.t == 0.0
    with pytest.raises(ValidationError, match="mu must be a number"):  # NaN passes mu < L
        CurvatureClass(mu=math.nan, L=1.0)
    with pytest.raises(MuAboveL):
        CurvatureClass(mu=math.inf, L=1.0)


def test_schedule_bounds():
    with pytest.raises(BadStepSchedule):
        StepSchedule(())
    with pytest.raises(BadStepSchedule):
        StepSchedule((0.0,))
    with pytest.raises(BadStepSchedule):
        StepSchedule((1.0, 2.0))
    sched = StepSchedule.constant(0.5, 4)
    assert sched.n == 4 and set(sched.steps) == {0.5}


def test_triplet_shapes():
    ts = TripletSet([[1.0, 2.0]], [[0.5, 0.5]], [3.0])
    assert ts.dim == 2 and len(ts) == 1 and ts[0].x.shape == (2,)
    with pytest.raises(DimensionMismatch):
        TripletSet([[1.0, 2.0]], [[0.5]], [3.0])


def test_triplet_set_dimension_check():
    # X and G of one shape (n, d), f of shape (n,), n >= 1
    for X, G, f in [
        ([[1.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]),  # x in 1-D, g in 2-D
        ([[1.0], [2.0]], [[0.0], [0.0]], [0.0]),  # one value for two points
        (np.empty((0, 1)), np.empty((0, 1)), []),  # no point
        ([1.0, 2.0], [0.0, 0.0], [0.0, 0.0]),  # X a vector, not rows
    ]:
        with pytest.raises(DimensionMismatch):
            TripletSet(X, G, f)


def test_triplet_set_json_roundtrip():
    ts = TripletSet([[1.0, 2.0], [0.0, 1.0]], [[0.1, -0.2], [0.0, 0.0]], [3.5, -1.0])
    # the --emit-triplets file format, byte for byte
    assert ts.to_json() == (
        '{"dim": 2, "triplets": [{"x": [1.0, 2.0], "g": [0.1, -0.2], "f": 3.5}, '
        '{"x": [0.0, 1.0], "g": [0.0, 0.0], "f": -1.0}]}'
    )
    obj = json.loads(ts.to_json())
    assert obj["dim"] == 2 and len(obj["triplets"]) == 2
    for t, back in zip(ts, obj["triplets"]):
        assert isinstance(t, OracleTriplet) and type(t.f) is float
        assert np.array_equal(t.x, back["x"])
        assert np.array_equal(t.g, back["g"])
        assert t.f == back["f"]


def test_numerator_kind_values():
    assert NumeratorKind("gap_to_last") is NumeratorKind.gap_to_last
    assert NumeratorKind("gap_to_optimal") is NumeratorKind.gap_to_optimal


@pytest.mark.parametrize(
    "x,g,f",
    [
        ([0.0, np.nan], [0.0, 0.0], 0.0),
        ([0.0, 0.0], [np.inf, 0.0], 0.0),
        ([0.0, 0.0], [0.0, 0.0], -np.inf),
        # with (0, 0, 0), check_interpolable used to report this one feasible
        ([1.0], [5.0], np.nan),
        ([-np.inf, 0.0], [0.0, 0.0], 0.0),
        ([0.0, 0.0], [0.0, np.nan], 0.0),
    ],
)
def test_triplet_rejects_non_finite(x, g, f):
    # the bad triplet as the second row of a set
    with pytest.raises(NonFiniteTriplet):
        TripletSet([np.zeros(len(x)), x], [np.zeros(len(g)), g], [0.0, f])
