"""Forward observable simulation and the inverse parameter fit."""

import numpy as np
import pytest

from ringflux import fit, sweep
from ringflux.fit import (
    FitBounds,
    Observation,
    ObservationKind,
    fit_parameters,
    simulate_observables,
)
from ringflux.ring_model import FLUX_QUANTUM, ReducedParams
from ringflux.sweep import SweepSchedule, run_hysteresis

AMPS = (2.0, -2.0, 3.0, -3.0, 4.0, -4.0)
CURRENT_WAYPOINTS = (0.35, 1.2, 0.6, -0.45, -1.3, -0.5, 0.25, 0.8)


def _remnant_data(beta, phi_fe, step=0.05):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    values = simulate_observables(p, SweepSchedule(AMPS, step))
    return [Observation(a, v) for a, v in zip(AMPS, values)]


def _current_data(beta, phi_fe):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    values = simulate_observables(p, CURRENT_WAYPOINTS, ObservationKind.CURRENT)
    return [Observation(w, v, ObservationKind.CURRENT) for w, v in zip(CURRENT_WAYPOINTS, values)]


class TestSimulateObservables:
    def test_single_state_regime_remnants_vanish(self):
        # oracle: the loops themselves say the remnants are zero
        p = ReducedParams(beta=0.5)
        predictions = simulate_observables(p, SweepSchedule(AMPS, 0.02))
        for a, value in zip(AMPS, predictions):
            loop = run_hysteresis(p, abs(a), 0.02)
            expected = loop.remnant_down if a > 0 else loop.remnant_up
            assert value == expected
            assert abs(value) < 1e-10

    def test_predictions_odd_under_protocol_negation(self):
        p = ReducedParams(beta=5.0)
        forward = simulate_observables(p, SweepSchedule(AMPS, 0.02))
        mirrored = simulate_observables(
            p, SweepSchedule(tuple(-a for a in AMPS), 0.02))
        for f, m in zip(forward, mirrored):
            assert m == pytest.approx(-f, abs=1e-10)

    def test_deterministic(self):
        p = ReducedParams(beta=5.0, phi_fe=0.3)
        first = simulate_observables(p, SweepSchedule(AMPS, 0.05))
        second = simulate_observables(p, SweepSchedule(AMPS, 0.05))
        assert first == second

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            simulate_observables(ReducedParams(beta=2.0), SweepSchedule((0.0, 1.0), 0.1))

    def test_repeated_amplitudes_are_repeated_measurements(self):
        # as a drive schedule, (2, 2, 3) was rejected for repeating a waypoint
        p = ReducedParams(beta=5.0, phi_fe=0.3)
        values = simulate_observables(p, (2.0, 2.0, 3.0))
        expected = [run_hysteresis(p, a, 0.05).remnant_down for a in (2.0, 2.0, 3.0)]
        assert values == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_alternating_amplitudes_need_no_substep_budget(self):
        # as a drive schedule at step 1e-5, six swings of 10 asked for more
        # than sweep.MAX_SUBSTEPS sub-steps; the loop of amplitude 5 needs none
        p = ReducedParams(beta=5.0, phi_fe=0.3)
        amps = (5.0, -5.0, 5.0, -5.0, 5.0, -5.0, 5.0)
        loop = run_hysteresis(p, 5.0, 0.05)
        expected = [loop.remnant_down if a > 0 else loop.remnant_up for a in amps]
        assert simulate_observables(p, amps) == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_zero_amplitude_in_list_rejected(self):
        with pytest.raises(ValueError):
            simulate_observables(ReducedParams(beta=2.0), (1.0, 0.0))

    def test_current_kind_reads_only_the_waypoints_of_a_schedule(self):
        p = ReducedParams(beta=8.0, phi_fe=-0.2)
        plain = simulate_observables(p, CURRENT_WAYPOINTS, ObservationKind.CURRENT)
        for step in (0.05, 0.01):
            assert simulate_observables(p, SweepSchedule(CURRENT_WAYPOINTS, step),
                                        ObservationKind.CURRENT) == plain

    def test_current_kind_reads_states_along_path(self):
        p = ReducedParams(beta=0.5)
        waypoints = (0.2, 0.5, -0.3)
        values = simulate_observables(p, SweepSchedule(waypoints, 0.01),
                                      ObservationKind.CURRENT)
        assert len(values) == 3
        # history-free regime: each current is a function of the drive alone
        from ringflux.fixed_points import find_fixed_points
        for w, v in zip(waypoints, values):
            root = find_fixed_points(w, p)[0]
            assert v == pytest.approx(root.i, abs=1e-12)

    def test_current_kind_accepts_leading_zero_waypoint(self):
        p = ReducedParams(beta=0.5)
        values = simulate_observables(p, SweepSchedule((0.0, 0.4), 0.01),
                                      ObservationKind.CURRENT)
        assert len(values) == 2
        assert values[0] == pytest.approx(0.0, abs=1e-12)


class TestFitParameters:
    def test_roundtrip_beta5_biased(self):
        data = _remnant_data(5.0, 0.3)
        result = fit_parameters(data, ReducedParams(beta=4.0, phi_fe=0.2),
                                FitBounds(1.5, 15.0, -0.5, 0.5))
        assert result.params.beta == pytest.approx(5.0, rel=1e-2)
        assert result.params.phi_fe == pytest.approx(0.3, abs=1e-2)
        assert result.converged
        assert not result.flat_objective
        assert result.objective_value <= 1e-16

    @pytest.mark.parametrize("beta", [3.0, 5.0, 8.0])
    @pytest.mark.parametrize("phi_fe", [-0.4, 0.0, 0.4])
    def test_roundtrip_identifiability_grid(self, beta, phi_fe):
        # at (3, 0) both crossings return to branch 0: below beta ~ 4.6033
        # no other branch exists at zero drive, so every remnant is 0 and the
        # exact-fit level set {phi_fe = 0, beta below the trapping threshold}
        # is a segment: the pair is mathematically unidentifiable from
        # zero-drive remnants alone
        degenerate = beta == 3.0 and phi_fe == 0.0
        data = _remnant_data(beta, phi_fe)
        spread = np.ptp([o.observable for o in data])
        assert (spread < 1e-9) == degenerate
        initial = ReducedParams(beta=beta * 1.15, phi_fe=min(max(phi_fe + 0.08, -0.5), 0.5))
        result = fit_parameters(data, initial, FitBounds(1.5, 15.0, -0.5, 0.5))
        if degenerate:
            # the fit still reproduces the data essentially exactly,
            # somewhere on the level curve through the generating point
            assert result.objective_value <= 1e-10
        else:
            assert result.params.beta == pytest.approx(beta, rel=1e-2)
            assert result.params.phi_fe == pytest.approx(phi_fe, abs=1e-2)

    def test_objective_is_zero_at_generating_parameters(self):
        for beta, phi_fe in ((3.0, -0.4), (5.0, 0.3), (8.0, 0.4)):
            data = _remnant_data(beta, phi_fe)
            result = fit_parameters(data, ReducedParams(beta=beta, phi_fe=phi_fe),
                                    FitBounds(1.5, 15.0, -0.5, 0.5))
            assert result.objective_value <= 1e-16

    def test_never_worse_than_initial_point(self):
        data = _remnant_data(5.0, 0.3)
        from ringflux.fit import _objective
        initial = ReducedParams(beta=4.5, phi_fe=0.1)
        start_value = _objective(data)((4.5, 0.1))
        result = fit_parameters(data, initial, FitBounds(1.5, 15.0, -0.5, 0.5))
        assert result.objective_value <= start_value

    def test_flat_objective_flagged_below_unity_beta(self):
        data = [Observation(a, 0.0) for a in AMPS]
        result = fit_parameters(data, ReducedParams(beta=0.5),
                                FitBounds(0.2, 0.9, -0.5, 0.5))
        assert result.flat_objective
        assert result.objective_value <= 1e-16

    def test_restart_count_does_not_change_converged_best(self):
        data = _remnant_data(5.0, 0.3)
        one = fit_parameters(data, ReducedParams(beta=4.0, phi_fe=0.2),
                             FitBounds(1.5, 15.0, -0.5, 0.5), n_restarts=1)
        three = fit_parameters(data, ReducedParams(beta=4.0, phi_fe=0.2),
                               FitBounds(1.5, 15.0, -0.5, 0.5), n_restarts=3)
        assert one.objective_value == three.objective_value
        assert one.params == three.params

    def test_roundtrip_current_fit(self):
        result = fit_parameters(_current_data(8.0, -0.2), ReducedParams(beta=7.7, phi_fe=-0.17),
                                FitBounds(1.5, 15.0, -0.5, 0.5))
        assert result.params.beta == pytest.approx(8.0, abs=1e-2)
        assert result.params.phi_fe == pytest.approx(-0.2, abs=1e-2)

    def test_fits_run_no_sweep(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a fit ran a sweep")

        for module in (sweep, fit):
            monkeypatch.setattr(module, "run_schedule", no_sweep)
            monkeypatch.setattr(module, "run_hysteresis", no_sweep)
        bounds = FitBounds(1.5, 15.0, -0.5, 0.5)
        remnant = fit_parameters(_remnant_data(5.0, 0.3),
                                 ReducedParams(beta=4.5, phi_fe=0.25), bounds)
        assert remnant.params.beta == pytest.approx(5.0, rel=1e-2)
        current = fit_parameters(_current_data(6.0, 0.1),
                                 ReducedParams(beta=5.8, phi_fe=0.08), bounds)
        assert current.params.beta == pytest.approx(6.0, rel=1e-2)

    def test_repeated_calls_identical(self):
        data = _remnant_data(5.0, 0.0)
        kwargs = dict(initial=ReducedParams(beta=4.0), bounds=FitBounds(1.5, 15.0, -0.5, 0.5))
        a = fit_parameters(data, **kwargs)
        b = fit_parameters(data, **kwargs)
        assert a == b

    def test_repeated_amplitude_measurements_accepted(self):
        base = _remnant_data(5.0, 0.3)
        doubled = base + [Observation(base[0].phi_ext, base[0].observable)]
        result = fit_parameters(doubled, ReducedParams(beta=4.5, phi_fe=0.25),
                                FitBounds(1.5, 15.0, -0.5, 0.5))
        assert result.params.beta == pytest.approx(5.0, rel=1e-2)
        assert result.params.phi_fe == pytest.approx(0.3, abs=1e-2)

    def test_input_validation(self):
        good = _remnant_data(3.0, 0.0)
        with pytest.raises(ValueError):
            fit_parameters([], ReducedParams(beta=3.0))
        with pytest.raises(ValueError):
            fit_parameters(good[:2], ReducedParams(beta=3.0))
        mixed = good[:3] + [Observation(0.5, 0.1, ObservationKind.CURRENT)]
        with pytest.raises(ValueError):
            fit_parameters(mixed, ReducedParams(beta=3.0))
        with pytest.raises(ValueError):
            fit_parameters(good, ReducedParams(beta=30.0), FitBounds(1.0, 20.0))
        with pytest.raises(ValueError):
            FitBounds(beta_min=0.0)
        with pytest.raises(ValueError):
            Observation(np.nan, 0.0)

    def test_si_back_conversion(self):
        data = _remnant_data(5.0, 0.3)
        result = fit_parameters(data, ReducedParams(beta=5.0, phi_fe=0.3),
                                FitBounds(1.5, 15.0, -0.5, 0.5))
        ring = result.to_ring(I_J=1e-5, Phi0=FLUX_QUANTUM, area_A=1e-4)
        assert ring.I_J == 1e-5
        assert ring.L == pytest.approx(
            result.params.beta * FLUX_QUANTUM / (2 * np.pi * 1e-5), rel=1e-12)
        assert ring.Phi_Fe == pytest.approx(result.params.phi_fe * FLUX_QUANTUM, rel=1e-12)
