import json

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
    PositiveMu,
    StepSchedule,
    TripletSet,
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
    with pytest.raises(PositiveMu):
        validate_class(0.5, 1.0)


def test_class_rejects_mu_above_L():
    with pytest.raises(MuAboveL):
        CurvatureClass(mu=2.0, L=1.0)


def test_unbounded_below_has_no_kappa():
    cls = validate_class(0.0, 1.0, unbounded_below=True)
    assert cls.unbounded_below
    with pytest.raises(ValueError):
        cls.kappa


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
    t = OracleTriplet(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 3.0)
    assert t.x.shape == (2,)
    with pytest.raises(DimensionMismatch):
        OracleTriplet(np.array([1.0, 2.0]), np.array([0.5]), 3.0)


def test_triplet_scalar_coercion():
    t = OracleTriplet(1.0, 2.0, 3.0)
    assert t.x.shape == (1,) and t.g.shape == (1,)


def test_triplet_set_dimension_check():
    a = OracleTriplet(np.array([1.0]), np.array([0.0]), 0.0)
    b = OracleTriplet(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.0)
    with pytest.raises(DimensionMismatch):
        TripletSet((a, b))


def test_triplet_set_json_roundtrip():
    ts = TripletSet(
        (
            OracleTriplet(np.array([1.0, 2.0]), np.array([0.1, -0.2]), 3.5),
            OracleTriplet(np.array([0.0, 1.0]), np.array([0.0, 0.0]), -1.0),
        )
    )
    obj = json.loads(ts.to_json())
    assert obj["dim"] == 2 and len(obj["triplets"]) == 2
    for t, back in zip(ts, obj["triplets"]):
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
    ],
)
def test_triplet_rejects_non_finite(x, g, f):
    with pytest.raises(NonFiniteTriplet):
        OracleTriplet(np.array(x), np.array(g), f)

