"""Forward observable simulation and the inverse parameter fit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

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

from helpers import central_difference

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
        assert result.flat_objective == degenerate
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

        # fit imports neither name; raising=False also catches a later import by name
        for module in (sweep, fit):
            monkeypatch.setattr(module, "run_schedule", no_sweep, raising=False)
            monkeypatch.setattr(module, "run_hysteresis", no_sweep, raising=False)
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

    @pytest.mark.parametrize("bounds", [(1.5, math.inf), (0.1, 20.0, -math.inf, 0.5),
                                        (0.1, 20.0, -0.5, math.inf), (0.1, math.nan)])
    def test_non_finite_bounds_rejected(self, bounds):
        # an infinite box would fail only after the simplex has run
        with pytest.raises(ValueError, match="fit bounds must be finite"):
            FitBounds(*bounds)

    @pytest.mark.parametrize("n_restarts", [-1, -3])
    def test_negative_restarts_rejected(self, n_restarts):
        # range() of a negative count is empty: the fit ran no restart silently
        with pytest.raises(ValueError, match="n_restarts must be >= 0"):
            fit_parameters(_remnant_data(5.0, 0.3), ReducedParams(beta=4.0, phi_fe=0.2),
                           n_restarts=n_restarts)

    def test_si_back_conversion(self):
        data = _remnant_data(5.0, 0.3)
        result = fit_parameters(data, ReducedParams(beta=5.0, phi_fe=0.3),
                                FitBounds(1.5, 15.0, -0.5, 0.5))
        ring = result.to_ring(I_J=1e-5, Phi0=FLUX_QUANTUM, area_A=1e-4)
        assert ring.I_J == 1e-5
        assert ring.L == pytest.approx(
            result.params.beta * FLUX_QUANTUM / (2 * np.pi * 1e-5), rel=1e-12)
        assert ring.Phi_Fe == pytest.approx(result.params.phi_fe * FLUX_QUANTUM, rel=1e-12)


def _noisy(data, seed):
    rng = np.random.default_rng(seed)
    return [Observation(o.phi_ext, o.observable + rng.normal(0.0, 0.01), o.kind) for o in data]


class TestMinimize:
    BOX = [(1.5, 15.0), (-0.5, 0.5)]

    @pytest.mark.parametrize("kind", ["remnant", "current"])
    @pytest.mark.parametrize("start", ["off-truth", "random", "on-bound", "zero-coordinate"])
    def test_matches_scipy_nelder_mead(self, kind, start):
        # the port repeats scipy's simplex step for step, so x, fun, nit and
        # success agree to the bit on piecewise-smooth noisy objectives
        from scipy.optimize import minimize as scipy_minimize

        rng = np.random.default_rng([18, kind == "current"])
        beta, phi_fe = rng.uniform(5.0, 12.0), rng.uniform(-0.4, 0.4)
        data = (_current_data if kind == "current" else _remnant_data)(beta, phi_fe)
        objective = fit._objective(_noisy(data, 7))
        x0 = {"off-truth": (beta - 0.3, phi_fe - math.copysign(0.03, phi_fe)),
              "random": (rng.uniform(1.5, 15.0), rng.uniform(-0.5, 0.5)),
              "on-bound": (15.0, 0.5),
              "zero-coordinate": (beta, 0.0)}[start]
        ours = fit.minimize(objective, x0, self.BOX)
        theirs = scipy_minimize(objective, np.array(x0), method="Nelder-Mead", bounds=self.BOX,
                                options={"fatol": 1e-10, "xatol": 1e-10, "maxiter": 400})
        assert ours.x == tuple(float(v) for v in theirs.x)
        assert ours.fun == theirs.fun
        assert ours.nit == theirs.nit
        assert ours.success == theirs.success

    def test_stops_at_maxiter_without_success(self, monkeypatch):
        monkeypatch.setattr(fit, "_SIMPLEX_MAXITER", 5)
        result = fit.minimize(lambda x: (x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2, (1.0, 0.0),
                              [(-2.0, 2.0), (-2.0, 2.0)])
        assert result.nit == 5 and not result.success


class TestRemnantEstimate:
    BOUNDS = FitBounds(1.5, 15.0, -0.5, 0.5)

    @staticmethod
    def _truths(n=8):
        # above the 4.6033 trapping threshold, so the remnants sit on branches
        # with distinct sin(2*pi*r) and fix both parameters
        rng = np.random.default_rng(4603)
        return [(rng.uniform(4.7, 14.0), rng.uniform(-0.45, 0.45)) for _ in range(n)]

    def test_estimate_recovers_the_truth(self):
        for beta, phi_fe in self._truths():
            estimate = fit._remnant_estimate(_remnant_data(beta, phi_fe))
            assert estimate == pytest.approx((beta, phi_fe), rel=0.0, abs=1e-9)

    def test_exact_data_fit_without_a_simplex(self, monkeypatch):
        def no_simplex(*args, **kwargs):
            raise AssertionError("the fit ran a simplex")

        monkeypatch.setattr(fit, "minimize", no_simplex)
        for beta, phi_fe in self._truths():
            result = fit_parameters(_remnant_data(beta, phi_fe),
                                    ReducedParams(beta=beta - 0.3, phi_fe=phi_fe * 0.9),
                                    self.BOUNDS)
            assert result.iterations == 0
            assert result.objective_value <= fit.OBJECTIVE_FLOOR
            assert result.converged and not result.flat_objective

    def test_exact_fit_evaluates_the_objective_once(self, monkeypatch):
        # the forward check is the only evaluation: flat_objective is read
        # from the predictions it made
        calls = []
        simulate = fit.simulate_observables

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(fit, "simulate_observables", counted)
        for beta, phi_fe in self._truths(4):
            calls.clear()
            result = fit_parameters(_remnant_data(beta, phi_fe),
                                    ReducedParams(beta=beta - 0.3, phi_fe=phi_fe * 0.9),
                                    self.BOUNDS)
            assert result.iterations == 0 and not result.flat_objective
            assert len(calls) == 1

    @pytest.mark.parametrize("case", ["degenerate", "noisy"])
    def test_data_the_estimate_cannot_fit_reach_the_simplex(self, case, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return minimize(*args, **kwargs)

        minimize = fit.minimize
        monkeypatch.setattr(fit, "minimize", counted)
        if case == "degenerate":
            # 0.15 and 0.35 give the same sin(2*pi*r) to the bit: a singular
            # solve, but two distinct remnants, so no single curve fits them
            data = [Observation(a, 0.15 if a > 0.0 else 0.35) for a in AMPS]
            assert fit._remnant_estimate(data) is None
        else:
            data = _noisy(_remnant_data(5.0, 0.3), 11)
        result = fit_parameters(data, ReducedParams(beta=4.5, phi_fe=0.25), self.BOUNDS)
        assert calls and result.iterations > 0

    def test_exact_flat_remnants_fit_without_a_simplex(self, monkeypatch):
        # every remnant of (3, 0) is 0: the data fix only the curve
        # phi_fe = r + (beta/(2*pi))*sin(2*pi*r), taken at the initial beta
        def no_simplex(*args, **kwargs):
            raise AssertionError("the fit ran a simplex")

        monkeypatch.setattr(fit, "minimize", no_simplex)
        for truth, initial in (((3.0, 0.0), (3.2, 0.05)), ((2.413, -0.288), (2.6, -0.25))):
            data = _remnant_data(*truth)
            r = data[0].observable
            assert all(o.observable == r for o in data)
            result = fit_parameters(data, ReducedParams(*initial), self.BOUNDS)
            assert result.iterations == 0 and result.converged and result.flat_objective
            assert result.objective_value <= fit.OBJECTIVE_FLOOR
            assert result.params.beta == initial[0]
            assert result.params.phi_fe == pytest.approx(
                r + initial[0] / (2 * math.pi) * math.sin(2 * math.pi * r), abs=1e-15)


class TestUnresolvedPoints:
    """A point where the forward model raises NumericsError scores inf, so
    the simplex walks away from it instead of aborting the fit."""

    @staticmethod
    def _data():
        # just above beta = 1 a box that touches 1 lets the simplex step a
        # few ulps above it, where the hysteretic window is below rounding
        values = simulate_observables(ReducedParams(1.000308, 0.067), CURRENT_WAYPOINTS,
                                      ObservationKind.CURRENT)
        return [Observation(w, v, ObservationKind.CURRENT)
                for w, v in zip(CURRENT_WAYPOINTS, values)]

    def test_scores_inf(self):
        assert fit._evaluate(self._data(), (1.0000000000000002, 0.0)) == (math.inf, [])

    def test_fit_touching_beta_one_finishes(self):
        result = fit_parameters(self._data(), ReducedParams(1.2, 0.0),
                                FitBounds(1.0, 1.5, -0.5, 0.5), n_restarts=0)
        assert math.isfinite(result.objective_value) and result.objective_value < 1e-6
        assert result.params.beta == 1.0 and result.converged
        assert result.params.phi_fe == pytest.approx(0.067, abs=1e-4)

    def test_cli_fit_touching_beta_one_is_zero(self, tmp_path, capsys):
        from ringflux import cli

        data = tmp_path / "obs.csv"
        data.write_text("phi_ext,observable\n"
                        + "".join(f"{o.phi_ext!r},{o.observable!r}\n" for o in self._data()))
        assert cli.main(["fit", "--data", str(data), "--kind", "current", "--beta", "1.2",
                         "--phi_fe", "0", "--beta_min", "1", "--beta_max", "1.5",
                         "--restarts", "0"]) == 0
        captured = capsys.readouterr()
        assert "converged = true" in captured.out and captured.err == ""


class TestFlatObjective:
    """flat_objective is the rank of the predictions' Jacobian at the
    result: the data fix both parameters exactly when two predictions differ."""

    BOUNDS = FitBounds(1.5, 15.0, -0.5, 0.5)

    def test_near_equal_remnants_fit_in_closed_form_are_flat(self):
        # the estimate's beta is -1, clipped to beta_min: below the trapping
        # threshold every remnant there is the one root at zero drive
        data = [Observation(a, 1e-10 if a == 3.0 else 0.0) for a in AMPS]
        result = fit_parameters(data, ReducedParams(beta=2.0), self.BOUNDS)
        assert result.iterations == 0 and result.params.beta == self.BOUNDS.beta_min
        assert result.flat_objective

    def test_noisy_remnants_below_the_threshold_are_flat(self):
        # the simplex ends on a curve along which the objective is constant:
        # one predicted remnant r fixes only phi_fe - (beta/(2*pi))*sin(2*pi*r)
        values = (0.00964, -0.01426, -0.00329, -0.00788, -0.00056, -0.03130)
        data = [Observation(a, v) for a, v in zip(AMPS, values)]
        result = fit_parameters(data, ReducedParams(beta=3.519, phi_fe=-0.00018), self.BOUNDS,
                                n_restarts=1)
        assert result.iterations > 0
        assert len(set(simulate_observables(result.params, AMPS))) == 1
        assert result.flat_objective

    def test_a_pinned_box_is_not_flat(self):
        # the data fix both parameters whatever the box: the predictions at
        # the pinned beta still differ
        bounds = FitBounds(6.45, 6.45, -0.5, 0.5)
        result = fit_parameters(_remnant_data(6.5, 0.17), ReducedParams(6.45, 0.17), bounds)
        assert result.iterations > 0 and result.params.beta == 6.45
        assert not result.flat_objective

    @pytest.mark.parametrize("kind, outside", [("remnant", 2), ("current", 1)])
    def test_a_simplex_fit_predicts_once_beyond_the_simplex(self, kind, outside, monkeypatch):
        # outside `minimize`: the closed-form check (remnants only) and one
        # prediction at the result
        simulate, minimize = fit.simulate_observables, fit.minimize
        inside, calls = [], []

        def counted_simulate(*args, **kwargs):
            calls.append(bool(inside))
            return simulate(*args, **kwargs)

        def counted_minimize(*args, **kwargs):
            inside.append(True)
            try:
                return minimize(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(fit, "simulate_observables", counted_simulate)
        monkeypatch.setattr(fit, "minimize", counted_minimize)
        data = (_current_data if kind == "current" else _remnant_data)(6.0, 0.1)
        result = fit_parameters(_noisy(data, 5), ReducedParams(5.8, 0.08), self.BOUNDS)
        assert result.iterations > 0
        assert calls.count(False) == outside


@given(truth=st.tuples(st.floats(1.6, 9.0), st.floats(-0.45, 0.45)),
       seed=st.integers(0, 2**32 - 1))
def test_flat_objective_is_the_rank_of_a_difference_jacobian(truth, seed):
    # oracle: the numerical rank of central differences of the predictions at
    # the result; truths on both sides of the 4.6033 trapping threshold
    data = _noisy(_remnant_data(*truth), seed)
    result = fit_parameters(data, ReducedParams(*truth), FitBounds(1.5, 15.0, -0.5, 0.5),
                            n_restarts=0)
    x = [result.params.beta, result.params.phi_fe]
    at = np.array(simulate_observables(result.params, AMPS))
    h = 1e-6
    columns = []
    for axis in range(2):
        def predict(v, axis=axis):
            moved = list(x)
            moved[axis] = v
            return np.array(simulate_observables(ReducedParams(*moved), AMPS))

        # a step across a fold moves a remnant by about a flux quantum
        assume(max(np.abs(predict(x[axis] + s) - at).max() for s in (h, -h)) <= 0.25)
        columns.append(central_difference(predict, x[axis], h))
    singular = np.linalg.svd(np.array(columns).T, compute_uv=False)
    rank = int(np.sum(singular > 1e-6 * singular[0]))
    assert result.flat_objective == (rank < 2)


@given(truth=st.tuples(st.floats(1.5, 15.0), st.floats(-0.5, 0.5)),
       x=st.tuples(st.floats(1.5, 15.0), st.floats(-0.5, 0.5)),
       noise=st.lists(st.floats(-0.05, 0.05), min_size=len(AMPS), max_size=len(AMPS)),
       order=st.permutations(range(len(AMPS))))
def test_objective_ignores_the_order_of_remnant_observations(truth, x, noise, order):
    # each remnant comes from its own loop, so the order carries nothing; an
    # exactly rounded sum keeps that, where a dot product of the residuals
    # changed bits in about a third of noisy draws
    values = simulate_observables(ReducedParams(*truth), AMPS)
    observations = [Observation(a, v + e) for a, v, e in zip(AMPS, values, noise)]
    permuted = [observations[j] for j in order]
    assert fit._objective(permuted)(x).hex() == fit._objective(observations)(x).hex()


def test_fits_import_no_scipy():
    probe = (
        "import sys\n"
        "from ringflux.fit import (Observation, ObservationKind, fit_parameters,\n"
        "                          simulate_observables)\n"
        "from ringflux.ring_model import ReducedParams\n"
        "p = ReducedParams(5.0, 0.3)\n"
        "for keys, kind in (((2.0, -2.0, 3.0, -3.0), ObservationKind.REMNANT_FLUX),\n"
        "                   ((0.35, 1.2, 0.6, -0.45), ObservationKind.CURRENT)):\n"
        "    values = simulate_observables(p, keys, kind)\n"
        "    data = [Observation(k, v + 1e-3, kind) for k, v in zip(keys, values)]\n"
        "    fit_parameters(data, ReducedParams(4.8, 0.28), n_restarts=0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"
