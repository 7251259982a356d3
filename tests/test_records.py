"""Record semantics: results are NamedTuples; validated inputs are slotted,
immutable values that equal only their own class."""

import copy
import pickle

import pytest

from ringflux.bloch_cpr import FreeEnergyModel
from ringflux.fit import FitBounds, FitResult, Observation, ObservationKind
from ringflux.fixed_points import FixedPoint, Stability
from ringflux.ring_model import FLUX_QUANTUM, TWO_PI, ReducedParams, RingParams
from ringflux.sweep import BranchState, HysteresisLoop, JumpEvent, SweepSchedule, SweepTrajectory

_JUMP = JumpEvent(0.75, 0.1, 1.2, 3)
_TRAJECTORY = SweepTrajectory((BranchState(0.0, 0.1, 0.2, 0, 0.1),), (_JUMP,), (0,))

#: class, positional values, the same values by keyword, and the repr
VALIDATED = [
    (RingParams, (2.0, 3.0, 1.0, -0.5, 2.0),
     dict(L=2.0, I_J=3.0, Phi0=1.0, Phi_Fe=-0.5, area_A=2.0),
     "RingParams(L=2.0, I_J=3.0, Phi0=1.0, Phi_Fe=-0.5, area_A=2.0)"),
    (ReducedParams, (5.0, 0.3), dict(beta=5.0, phi_fe=0.3),
     "ReducedParams(beta=5.0, phi_fe=0.3)"),
    (SweepSchedule, ((0.0, 1.0), 0.5), dict(waypoints=(0.0, 1.0), step=0.5),
     "SweepSchedule(waypoints=(0.0, 1.0), step=0.5)"),
    (Observation, (1.0, -0.25, ObservationKind.CURRENT),
     dict(phi_ext=1.0, observable=-0.25, kind=ObservationKind.CURRENT),
     "Observation(phi_ext=1.0, observable=-0.25, kind=<ObservationKind.CURRENT: 'current'>)"),
    (FitBounds, (1.5, 15.0, -0.5, 0.5),
     dict(beta_min=1.5, beta_max=15.0, phi_fe_min=-0.5, phi_fe_max=0.5),
     "FitBounds(beta_min=1.5, beta_max=15.0, phi_fe_min=-0.5, phi_fe_max=0.5)"),
    (FreeEnergyModel, ((3.2e-22, 0.0), 2.07e-15), dict(coeffs=(3.2e-22, 0.0), Phi0=2.07e-15),
     "FreeEnergyModel(coeffs=(3.2e-22, 0.0), Phi0=2.07e-15)"),
]

RESULTS = [
    (FixedPoint, (0.25, -0.5, Stability.STABLE), ("phi", "i", "stability"),
     "FixedPoint(phi=0.25, i=-0.5, stability=<Stability.STABLE: 'stable'>)"),
    (JumpEvent, (0.75, 0.1, 1.2, 3),
     ("phi_ext_at_jump", "phi_before", "phi_after", "landing_index"),
     "JumpEvent(phi_ext_at_jump=0.75, phi_before=0.1, phi_after=1.2, landing_index=3)"),
    (SweepTrajectory, _TRAJECTORY, ("samples", "events", "waypoint_indices"),
     "SweepTrajectory(samples=(BranchState(phi_ext=0.0, phi=0.1, i=0.2, branch_id=0, u=0.1),), "
     f"events=({_JUMP!r},), waypoint_indices=(0,))"),
    (HysteresisLoop, (0.1, -0.1, 0.5, _TRAJECTORY),
     ("remnant_up", "remnant_down", "loop_area", "cycle"),
     f"HysteresisLoop(remnant_up=0.1, remnant_down=-0.1, loop_area=0.5, cycle={_TRAJECTORY!r})"),
    (FitResult, (ReducedParams(5.0, 0.3), 1e-20, 0, True, False),
     ("params", "objective_value", "iterations", "converged", "flat_objective"),
     "FitResult(params=ReducedParams(beta=5.0, phi_fe=0.3), objective_value=1e-20, "
     "iterations=0, converged=True, flat_objective=False)"),
]

_ids = [case[0].__name__ for case in VALIDATED]
_result_ids = [case[0].__name__ for case in RESULTS]


@pytest.mark.parametrize("cls, args, kwargs, text", VALIDATED, ids=_ids)
def test_validated_input_equals_only_its_own_class(cls, args, kwargs, text):
    record = cls(*args)
    assert record == cls(**kwargs) and hash(record) == hash(cls(**kwargs)) == hash(args)
    assert record != args and args != record
    assert record != list(args)
    other = type("Other", (cls,), {"__slots__": ()})(*args)  # same values, another class
    assert record != other and other != record
    assert not isinstance(record, tuple)


@pytest.mark.parametrize("cls, args, kwargs, text", VALIDATED, ids=_ids)
def test_validated_input_keeps_its_repr(cls, args, kwargs, text):
    assert repr(cls(*args)) == repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", VALIDATED, ids=_ids)
def test_validated_input_is_frozen(cls, args, kwargs, text):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert record == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", VALIDATED, ids=_ids)
def test_validated_input_copies_and_pickles(cls, args, kwargs, text):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == text


def test_validated_input_defaults():
    assert RingParams(L=1e-10, I_J=1e-5) == RingParams(1e-10, 1e-5, FLUX_QUANTUM, 0.0, 1.0)
    assert ReducedParams(beta=5.0) == ReducedParams(5.0, 0.0)
    assert Observation(2.0, 0.5).kind is ObservationKind.REMNANT_FLUX
    assert FitBounds() == FitBounds(0.1, 20.0, -0.5, 0.5)
    assert FreeEnergyModel(coeffs=(1e-21,)).Phi0 == FLUX_QUANTUM
    with pytest.raises(TypeError):
        RingParams(L=1e-10)
    with pytest.raises(TypeError):
        SweepSchedule((0.0, 1.0))


def test_reduced_params_lam_survives_a_copy():
    p = pickle.loads(pickle.dumps(ReducedParams(5.0, 0.3)))
    assert p.lam == ReducedParams(5.0, 0.3).lam
    with pytest.raises(AttributeError):
        p.lam = 1.0


@pytest.mark.parametrize("cls, values, fields, text", RESULTS, ids=_result_ids)
def test_result_record_is_a_named_tuple(cls, values, fields, text):
    record = cls(*values)
    assert cls._fields == fields
    assert isinstance(record, tuple) and tuple(record) == tuple(values)
    assert record == cls(**dict(zip(fields, values)))
    assert repr(record) == text
    first, *_ = record
    assert first is values[0] is record[0] is getattr(record, fields[0])


@pytest.mark.parametrize("cls, values, fields, text", RESULTS, ids=_result_ids)
def test_result_record_is_frozen(cls, values, fields, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0


def test_fit_result_converts_to_si():
    ring = FitResult(ReducedParams(5.0, 0.3), 0.0, 0, True, False).to_ring(1e-5, 2e-15)
    assert ring == RingParams(5.0 * 2e-15 / (TWO_PI * 1e-5), 1e-5, 2e-15, 0.3 * 2e-15)
