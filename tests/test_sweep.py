"""Quasi-static continuation, jumps at folds, and hysteresis loops."""

import hashlib
import math
import random

import numpy as np
import pytest

from helpers import TWO_PI, branch_index, brute_force_roots, brute_stability, residual_slope
from ringflux.fixed_points import (
    NumericsError,
    Stability,
    classify_stability,
    find_fixed_points,
    residual,
)
from ringflux import fixed_points, sweep
from ringflux.ring_model import ReducedParams, RingParams
from ringflux.sweep import (
    BranchState,
    HysteresisLoop,
    SweepSchedule,
    SweepTrajectory,
    continue_branch,
    hysteresis_remnants,
    loop_area,
    remnant_report,
    MAX_SUBSTEPS,
    path_fluxes,
    resolve_jump,
    run_hysteresis,
    run_schedule,
)

# frozen with the brute-force sweep oracle helpers.brute_sweep_remnants
# (dense scan + nearest-stable continuation at step 1e-3, roots refined by
# bisection); `python tests/helpers.py` regenerates them
REMNANT = {3.0: 0.0, 5.0: 0.7808611255, 10.0: 0.9038739936}
BIASED_REMNANT_DOWN = 0.8722692073  # beta=5, phi_fe=0.3
BIASED_REMNANT_UP = 0.0507114433


def _count_root_scans(monkeypatch):
    """Patch find_fixed_points, the only name through which the library
    reaches a scan, to record its calls in the list returned."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return find_fixed_points(*args, **kwargs)

    monkeypatch.setattr(fixed_points, "find_fixed_points", counting)
    return calls


def _state_at(p, phi_ext, phi_hint):
    roots = [r for r in find_fixed_points(phi_ext, p) if r.stability is Stability.STABLE]
    pick = min(roots, key=lambda r: abs(r.phi - phi_hint))
    k = branch_index(pick.phi, p.beta)
    return BranchState(phi_ext, pick.phi, pick.i, k, pick.phi - k)


class TestSweepSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSchedule((), 0.1)
        with pytest.raises(ValueError):
            SweepSchedule((0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            SweepSchedule((0.0, 0.0), 0.1)
        with pytest.raises(ValueError):
            SweepSchedule((0.0, math.inf), 0.1)

    def test_substep_count_is_capped(self):
        # every sub-step is kept as a sample, so the count bounds memory;
        # the check runs before anything is allocated
        span = MAX_SUBSTEPS * 0.5
        assert SweepSchedule((0.0, span), 0.5).step == 0.5
        assert SweepSchedule((0.0, span / 2, 0.0), 0.5).step == 0.5
        with pytest.raises(ValueError, match="sub-steps"):
            SweepSchedule((0.0, span + 0.5), 0.5)
        with pytest.raises(ValueError, match="sub-steps"):
            SweepSchedule((0.0, span / 2, -0.5), 0.5)
        with pytest.raises(ValueError, match="sub-steps"):
            SweepSchedule((0.0, 1e9), 1e-3)
        with pytest.raises(ValueError, match="sub-steps"):
            SweepSchedule((0.0, 1e300), 1e-300)  # the ratio overflows to inf


class TestContinueBranch:
    def test_identity_step_returns_state_unchanged(self):
        p = ReducedParams(beta=5.0)
        state = _state_at(p, 0.0, 1.0)
        assert continue_branch(state, state.phi_ext, p) is state

    def test_small_beta_slope_matches_implicit_function(self):
        # d(phi)/d(phi_ext) = 1/g'(phi) = 1/(1 + beta) at the origin, 2/3 for
        # beta=0.5, checked against a finite difference of the brute-force
        # root path
        p = ReducedParams(beta=0.5)
        state = _state_at(p, 0.0, 0.0)
        nxt = continue_branch(state, 0.01, p)
        assert isinstance(nxt, BranchState)
        fd = (brute_force_roots(0.01, 0.5)[0] - brute_force_roots(0.0, 0.5)[0]) / 0.01
        assert (nxt.phi - state.phi) / 0.01 == pytest.approx(fd, rel=1e-9)
        assert (nxt.phi - state.phi) / 0.01 == pytest.approx(2.0 / 3.0, rel=1e-2)

    def test_no_fold_ever_below_unity_beta(self):
        p = ReducedParams(beta=0.5)
        state = _state_at(p, 0.0, 0.0)
        for pe in np.linspace(0.05, 6.0, 120):
            state = continue_branch(state, float(pe), p)
            assert isinstance(state, BranchState)

    def test_fold_signalled_past_branch_end(self):
        # from the origin, branch 0, one sub-step past its fold level jumps
        # there, and one that ends on the level stays on the branch
        p = ReducedParams(beta=5.0)
        c_hi = fixed_points._branches(p.beta).half
        traj = run_schedule(p, SweepSchedule((0.0, c_hi + 0.01), 2.0))
        [event] = traj.events
        assert event.phi_ext_at_jump == c_hi
        assert [s.branch_id for s in traj.samples] == [0, 1, 1]
        traj = run_schedule(p, SweepSchedule((0.0, c_hi), 2.0))
        assert traj.events == ()
        assert [s.branch_id for s in traj.samples] == [0, 0]

    def test_drive_on_fold_level_stays_on_branch(self):
        # at a fold level the root is the segment end, where the residual
        # may round to the wrong sign; the solve must return that tangency
        for j in range(400):
            p = ReducedParams(beta=1.5 + 0.05 * j)
            state = _state_at(p, 0.0, 0.0)
            half = fixed_points._branches(p.beta).half
            for c in (-half, half):
                nxt = continue_branch(state, c, p)
                assert isinstance(nxt, BranchState)
                assert nxt.branch_id == 0
                assert abs(residual(nxt.phi, c, p)) <= 1e-12

    def test_refined_fold_matches_analytic_tangency(self):
        # branch 0 dies at c_hi = 1/2 - phi_a + lambda*sin(2*pi*phi_a) ~ 1.062
        p = ReducedParams(beta=5.0)
        at, before, _ = resolve_jump(p, 0, True)
        phi_a, w = fixed_points._branches(p.beta)[:2]
        assert (at, before) == (0.5 + w, 0.5 - phi_a)
        # the departing state is a tangency: g and g' both vanish there
        assert abs(residual(before, at, p)) < 1e-9
        assert abs(residual_slope(before, p.beta)) < 1e-9


class TestResolveJump:
    def test_lands_on_nearest_surviving_stable_root(self):
        p = ReducedParams(beta=5.0)
        at, before, landing = resolve_jump(p, 0, True)
        # independent selection: enumerate stable roots away from the dying
        # branch and take the nearest
        roots = [r for r in find_fixed_points(at, p)
                 if r.stability is Stability.STABLE and branch_index(r.phi, p.beta) != 0]
        expected = min(roots, key=lambda r: abs(r.phi - before))
        assert landing.phi == expected.phi
        # one flux quantum admitted: the landing sits on the next branch up
        assert branch_index(landing.phi, p.beta) == 1
        assert landing.phi > before

    def test_descending_target_mirrors_ascending(self):
        p = ReducedParams(beta=5.0)
        up_at, _, up = resolve_jump(p, 0, True)
        down_at, _, down = resolve_jump(p, 0, False)
        assert down_at == -up_at
        assert (down.phi, down.i) == (-up.phi, -up.i)

    def test_lands_in_the_drive_direction(self):
        # off branch 0's descending fold on branch -1, off its ascending one
        # on branch 1: one flux quantum out or in, never against the drive
        p = ReducedParams(5.0, 0.1)
        for ascending, k in ((False, -1), (True, 1)):
            at, before, landing = resolve_jump(p, 0, ascending)
            assert branch_index(landing.phi, p.beta) == k
            assert (landing.phi > before) is ascending
            assert landing.stability is Stability.STABLE
            assert abs(residual(landing.phi, at, p)) <= 1e-12


class TestRunHysteresis:
    def test_rejects_bad_arguments(self):
        p = ReducedParams(beta=2.0)
        with pytest.raises(ValueError):
            run_hysteresis(p, 0.0, 0.01)
        with pytest.raises(ValueError):
            run_hysteresis(p, 2.0, -0.1)

    @pytest.mark.parametrize("beta", [1.35e154, 1e200, 1e300])
    def test_beta_past_the_overflow_of_beta_squared(self, beta):
        # branch 0 spans |c| <= about beta/(2*pi), so a unit drive never
        # folds, and the flux follows c/(1 + beta)
        p = ReducedParams(beta=beta)
        loop = run_hysteresis(p, 1.0, 0.5)
        assert loop.cycle.events == ()
        for s in loop.cycle.samples:
            assert s.branch_id == 0
            assert s.phi == pytest.approx(s.phi_ext / beta, rel=1e-15, abs=0.0)
        assert hysteresis_remnants(p, [1.0, 3.0]) == [(0.0, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
    def test_single_state_regime_is_history_free(self, beta):
        loop = run_hysteresis(ReducedParams(beta=beta), 2.0, 0.01)
        assert abs(loop.loop_area) <= 1e-10
        assert loop.remnant_up == pytest.approx(loop.remnant_down, abs=1e-10)
        assert loop.cycle.events == ()
        # ascending and descending passes agree pointwise: match each
        # descending sample to the nearest ascending drive value
        samples = loop.cycle.samples
        i0, i1, _, i3, i4 = loop.cycle.waypoint_indices
        up = np.array(sorted((s.phi_ext, s.phi)
                             for s in samples[i0:i1 + 1] + samples[i3:i4 + 1]))
        for s in samples[i1:i3 + 1]:
            j = int(np.argmin(np.abs(up[:, 0] - s.phi_ext)))
            assert abs(up[j, 0] - s.phi_ext) < 1e-9
            assert up[j, 1] == pytest.approx(s.phi, abs=1e-10)

    @pytest.mark.parametrize("beta", [3.0, 5.0, 10.0])
    def test_hysteretic_remnants_match_oracle(self, beta):
        loop = run_hysteresis(ReducedParams(beta=beta), 3.0, 0.01)
        assert loop.remnant_down == pytest.approx(REMNANT[beta], abs=1e-8)
        assert loop.remnant_up == pytest.approx(-REMNANT[beta], abs=1e-8)
        assert len(loop.cycle.events) > 0
        assert abs(loop.loop_area) > 0.1

    def test_remnant_symmetry_tight(self):
        loop = run_hysteresis(ReducedParams(beta=5.0), 3.0, 0.01)
        assert loop.remnant_up == pytest.approx(-loop.remnant_down, abs=1e-12)

    def test_every_sample_is_a_stable_fixed_point(self):
        p = ReducedParams(beta=5.0, phi_fe=0.2)
        loop = run_hysteresis(p, 2.5, 0.02)
        for s in loop.cycle.samples:
            assert abs(residual(s.phi, s.phi_ext, p)) <= 1e-12
            assert classify_stability(s.phi, p) is Stability.STABLE
            assert s.i == pytest.approx(math.sin(TWO_PI * s.phi), abs=1e-14)
            assert branch_index(s.phi, p.beta) == s.branch_id

    def test_continuity_between_events(self):
        p = ReducedParams(beta=5.0)
        step = 0.01
        loop = run_hysteresis(p, 3.0, step)
        landing = {e.landing_index for e in loop.cycle.events}
        bound = 3.0 * math.sqrt(step)
        for idx in range(1, len(loop.cycle.samples)):
            if idx in landing:
                continue
            delta = abs(loop.cycle.samples[idx].phi - loop.cycle.samples[idx - 1].phi)
            assert delta <= bound

    def test_jump_monotonicity_and_drive_direction(self):
        p = ReducedParams(beta=5.0, phi_fe=0.1)
        loop = run_hysteresis(p, 3.0, 0.01)
        assert len(loop.cycle.events) >= 6
        samples = loop.cycle.samples
        for e in loop.cycle.events:
            ascending = samples[e.landing_index - 1].phi_ext < e.phi_ext_at_jump or (
                samples[e.landing_index - 1].phi_ext == e.phi_ext_at_jump
                and e.phi_after > e.phi_before)
            if ascending:
                assert e.phi_after > e.phi_before
            else:
                assert e.phi_after < e.phi_before
            # flux admitted toward the drive
            c = e.phi_ext_at_jump + p.phi_fe
            assert math.copysign(1.0, e.phi_after - e.phi_before) == (
                math.copysign(1.0, c - e.phi_before))

    def test_jump_events_sit_near_tangencies(self):
        p = ReducedParams(beta=5.0)
        loop = run_hysteresis(p, 3.0, 0.01)
        for e in loop.cycle.events:
            assert abs(residual(e.phi_before, e.phi_ext_at_jump, p)) < 1e-9
            assert abs(residual_slope(e.phi_before, p.beta)) < 1e-6
            # landing is a stable root at the jump drive
            assert abs(residual(e.phi_after, e.phi_ext_at_jump, p)) <= 1e-12
            assert classify_stability(e.phi_after, p) is Stability.STABLE

    def test_step_refinement_leaves_remnants_unchanged(self):
        p = ReducedParams(beta=5.0, phi_fe=0.15)
        coarse = run_hysteresis(p, 3.0, 1e-3)
        fine = run_hysteresis(p, 3.0, 5e-4)
        assert fine.remnant_down == pytest.approx(coarse.remnant_down, abs=1e-8)
        assert fine.remnant_up == pytest.approx(coarse.remnant_up, abs=1e-8)

    def test_bias_shift_exactness(self):
        # the biased loop is the unbiased loop over shifted waypoints,
        # sample for sample after relabeling the drive axis
        amp, fe, step = 3.0, 0.3, 0.01
        biased = run_schedule(ReducedParams(beta=5.0, phi_fe=fe),
                              SweepSchedule((0.0, amp, 0.0, -amp, 0.0), step))
        shifted = run_schedule(ReducedParams(beta=5.0),
                               SweepSchedule((fe, amp + fe, fe, -amp + fe, fe), step))
        assert len(biased.samples) == len(shifted.samples)
        for sb, ss in zip(biased.samples, shifted.samples):
            assert ss.phi_ext - fe == pytest.approx(sb.phi_ext, abs=1e-12)
            assert ss.phi == pytest.approx(sb.phi, abs=1e-12)
            assert ss.i == pytest.approx(sb.i, abs=1e-12)
        assert len(biased.events) == len(shifted.events)
        # the area is summed over cell roots, so a far bias, rounded at
        # ulp(phi_fe) up to 0.125, keeps the near loop's area bit for bit
        areas = {run_hysteresis(ReducedParams(5.0, fe), 2.0, 0.0625).loop_area
                 for fe in (0.1, 1e12 + 0.1, 1e14 + 0.125, 1e15 + 0.125)}
        assert len(areas) == 1

    def test_biased_remnants_match_oracle(self):
        loop = run_hysteresis(ReducedParams(beta=5.0, phi_fe=0.3), 3.0, 0.01)
        assert loop.remnant_down == pytest.approx(BIASED_REMNANT_DOWN, abs=1e-8)
        assert loop.remnant_up == pytest.approx(BIASED_REMNANT_UP, abs=1e-8)
        # the ferromagnetic bias makes the loop asymmetric at zero drive
        assert abs(loop.remnant_up + loop.remnant_down) > 0.05

    def test_descending_pass_tracks_brute_force_states(self):
        # spot-check trajectory samples against the scan oracle
        p = ReducedParams(beta=5.0)
        loop = run_hysteresis(p, 3.0, 0.01)
        rng = np.random.default_rng(9)
        i1, i3 = loop.cycle.waypoint_indices[1], loop.cycle.waypoint_indices[3]
        samples = loop.cycle.samples[i1:i3 + 1]
        for idx in rng.choice(len(samples), size=25, replace=False):
            s = samples[idx]
            brute = brute_force_roots(s.phi_ext, p.beta, step=1e-4)
            stable = [b for b in brute if brute_stability(b, p.beta) == 1]
            assert min(abs(b - s.phi) for b in stable) < 1e-6

    def test_sweep_scans_no_roots(self, monkeypatch):
        # the virgin state solves three stable branches, and every jump lands
        # on the one landing root of its beta, whatever the number of jumps
        calls = _count_root_scans(monkeypatch)
        loop = run_hysteresis(ReducedParams(5.0, 0.1), 3.0, 0.01)
        assert len(loop.cycle.events) >= 6
        assert calls == []


class TestHysteresisRemnants:
    # agreement with run_hysteresis on drawn parameters is a property in
    # test_sweep_properties.py; these are the edges

    @pytest.mark.parametrize("beta,phi_fe", [(5.0, 0.3), (12.0, 0.0), (40.0, -0.45)])
    def test_huge_amplitude_needs_no_sweep(self, beta, phi_fe):
        # once the ascending pass climbs above every branch that exists at
        # zero drive (k up to about lam, reached past A ~ 2*lam + 1 = 13.7 at
        # beta 40), the remnants no longer depend on the amplitude; no
        # sweep could take these excursions at a step that resolves folds,
        # and at 1e300 one ulp of the drive spans 1e284 branches
        p = ReducedParams(beta=beta, phi_fe=phi_fe)
        loop = run_hysteresis(p, 20.25, 0.05)
        for got in hysteresis_remnants(p, [20.25 + 2.0 ** 40, 1e3, 1e300]):
            assert got == pytest.approx((loop.remnant_down, loop.remnant_up), rel=0.0, abs=1e-12)

    def test_raises_where_the_sweep_raises(self):
        # the fold window is below rounding: no stable root survives the jump
        p = ReducedParams(beta=1.0 + 1e-12)
        with pytest.raises(NumericsError):
            run_hysteresis(p, 2.0, 0.01)
        with pytest.raises(NumericsError):
            hysteresis_remnants(p, [2.0])
        # a loop that crosses no fold needs no jump and returns the root
        [(down, up)] = hysteresis_remnants(p, [0.25])
        assert down == up == run_hysteresis(p, 0.25, 0.01).remnant_down

    def test_window_below_rounding_is_named(self):
        # beta - 1 = 1e-12 puts the window w ~ 1.5e-19 under the rounding of
        # the fold level 1/2 + w, so no stable landing root can be resolved
        p = ReducedParams(beta=1.0 + 1e-12)
        with pytest.raises(NumericsError, match="window below rounding"):
            run_hysteresis(p, 2.0, 0.01)
        with pytest.raises(NumericsError, match="window below rounding"):
            hysteresis_remnants(p, [2.0])

    def test_rejects_bad_amplitudes(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hysteresis_remnants(ReducedParams(beta=5.0), [2.0, bad])

    @pytest.mark.parametrize("beta,phi_fe", [(5.0, 0.3), (8.5, -0.3), (12.0, 0.1),
                                             (1e4, -0.3), (1e6, 0.2), (0.5, 0.3)])
    def test_no_root_scan_per_call(self, monkeypatch, beta, phi_fe):
        # the virgin state solves three stable branches (one window for
        # beta <= 1), the walk's branches are closed form and the landing is
        # one segment solve per beta
        calls = _count_root_scans(monkeypatch)
        p = ReducedParams(beta=beta, phi_fe=phi_fe)
        hysteresis_remnants(p, [2.0, 3.0, 4.0])
        path_fluxes(p, [2.0, -3.0, 4.0, 0.5])
        assert calls == []

    @pytest.mark.parametrize("beta,step", [pytest.param(1e3, 0.5, id="1000.0"),
                                           pytest.param(1e4, 0.5, id="10000.0"),
                                           pytest.param(2e4, 50.0, id="20000.0-step50")])
    def test_large_beta_remnants_match_the_sweep(self, beta, step):
        # hundreds to thousands of jumps per loop; the kernel's remnants are
        # the sweep's, bit for bit.  At beta 2e4, |phi| reaches 3e3, where g
        # rounds above 1e-12*|phi| and roots pass only the bound
        # 2*(1 + beta)*ulp(phi) that find_fixed_points accepts them at
        p = ReducedParams(beta=beta)
        amp = 2 * p.lam + 2.25
        loop = run_hysteresis(p, amp, step)
        assert len(loop.cycle.events) > 2 * p.lam
        assert hysteresis_remnants(p, [amp]) == [(loop.remnant_down, loop.remnant_up)]

    def test_far_remnants_are_roots_of_the_scan(self):
        # remnants at |phi| ~ 1.1e4, where g rounds at about 1e-8, are
        # stable roots of a full scan (63,663 roots), bit for bit
        p = ReducedParams(1e5, 0.3)
        stable = {r.phi for r in find_fixed_points(0.0, p) if r.stability is Stability.STABLE}
        [(down, up)] = hysteresis_remnants(p, [27059.4])
        assert down in stable and up in stable

    def test_remnants_at_beta_1e6(self):
        # |phi| ~ 1.1e5; a full scan there returns about 6.4e5 roots
        p = ReducedParams(1e6, 0.3)
        [(down, up)] = hysteresis_remnants(p, [270600.0])
        assert down > 0.0 > up
        for phi in (down, up):
            assert abs(residual(phi, 0.0, p)) <= 2.0 * (1.0 + p.beta) * math.ulp(phi)
            assert classify_stability(phi, p) is Stability.STABLE

    def test_path_fluxes_rejects_non_finite_waypoints(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                path_fluxes(ReducedParams(beta=5.0), [1.0, bad])


class TestLoopArea:
    def test_zero_for_retraced_path(self):
        loop = run_hysteresis(ReducedParams(beta=0.5), 1.5, 0.01)
        assert abs(loop.loop_area) < 1e-12

    def test_matches_coarse_quadrature(self):
        # the exact area must agree with a plain trapezoid over a fine-step
        # cycle, where the quadrature error is small
        p = ReducedParams(beta=5.0)
        fine = run_hysteresis(p, 3.0, 1e-3)
        xs = np.array([s.phi_ext for s in fine.cycle.samples])
        ys = np.array([s.i for s in fine.cycle.samples])
        plain = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        assert fine.loop_area == pytest.approx(plain, abs=2e-2)
        coarse = run_hysteresis(p, 3.0, 0.02)
        assert coarse.loop_area == pytest.approx(fine.loop_area, abs=5e-3)


    @pytest.mark.parametrize("excess", [3e-9, 1e-9])
    def test_area_below_rounding_is_named(self, excess):
        # the exact area, (beta - 1)**2 times about 5.7 at amplitude 2, is
        # under the rounding of the fsum of its 18 terms: 0.0 at 1 + 3e-9 and
        # 5.6e-17 at 1 + 1e-9, where about 5.7e-18 is exact
        with pytest.raises(NumericsError, match="loop area below rounding"):
            run_hysteresis(ReducedParams(beta=1.0 + excess), 2.0, 0.01)

    def test_area_above_its_rounding_is_returned(self):
        # 5.3e-15 against the floor 4*(2 + 2*8)*ulp(1/(2*pi) + lam/2) = 2.0e-15
        p = ReducedParams(beta=1.0 + 3e-8)
        loop = run_hysteresis(p, 2.0, 0.01)
        assert len(loop.cycle.events) == 8
        assert loop.loop_area == loop_area(loop.cycle, p)
        assert loop.loop_area == pytest.approx(5.7 * (3e-8) ** 2, rel=0.1)


class TestRemnantReport:
    def _loop_with_remnants(self, up, down):
        empty = SweepTrajectory((), (), ())
        return HysteresisLoop(remnant_up=up, remnant_down=down, loop_area=0.0,
                              cycle=empty)

    def test_zero_remnant(self):
        report = remnant_report(self._loop_with_remnants(0.0, 0.0),
                                RingParams(L=1e-10, I_J=1e-5))
        assert report.n_up == report.n_down == 0
        assert report.B_remnant_up == report.B_remnant_down == 0.0

    def test_quantized_field_arithmetic(self):
        # remnant phi = 2.98 rounds to n = 3; B = 3 * 2.07e-15 / 1e-4
        params = RingParams(L=1e-10, I_J=1e-5, Phi0=2.07e-15, area_A=1e-4)
        report = remnant_report(self._loop_with_remnants(-2.98, 2.98), params)
        assert report.n_down == 3
        assert report.n_up == -3
        assert report.B_remnant_down == pytest.approx(6.21e-11, rel=1e-12)
        assert report.phi_down == 2.98

    def test_symmetric_loop_has_opposite_indices(self):
        loop = run_hysteresis(ReducedParams(beta=10.0), 3.0, 0.01)
        report = remnant_report(loop, RingParams(L=1e-10, I_J=1e-5))
        assert report.n_up == -report.n_down
        assert report.n_down == 1


#: (base, step) of the far-drive sweeps; from 1e12 on the step is a multiple of ulp(base)
FAR_DRIVES = [(1e4, 0.01), (1e6, 0.01), (1e12, 0.01), (1e14, 0.0625), (1e15, 0.25)]


class TestRunSchedule:
    def test_waypoint_indices_land_on_waypoints(self):
        p = ReducedParams(beta=3.0)
        schedule = SweepSchedule((0.0, 1.0, -0.5), 0.03)
        traj = run_schedule(p, schedule)
        for w, idx in zip(schedule.waypoints, traj.waypoint_indices):
            assert traj.samples[idx].phi_ext == w

    def test_landing_on_the_substep_drive_adds_no_sample(self):
        # here c_hi - phi_fe, added back to phi_fe, rounds past c_hi: the last
        # sub-step's drive is past the fold level, and the jump lands on it
        p = ReducedParams(beta=5.0, phi_fe=-1.88)
        c_hi = fixed_points._branches(p.beta).half
        w = c_hi - p.phi_fe
        assert w + p.phi_fe > c_hi
        traj = run_schedule(p, SweepSchedule((1.88, w), 0.1))
        [event] = traj.events
        assert event.phi_ext_at_jump == w
        assert event.landing_index == len(traj.samples) - 1 == traj.waypoint_indices[-1]
        assert traj.samples[-2].phi_ext < w
        assert traj.samples[-2].branch_id + 1 == traj.samples[-1].branch_id == 1

    def test_initial_state_nearest_hint(self):
        # stable roots at zero drive are 0 and +/-0.78086 (brute-force
        # oracle); the hint 1.0 selects the outer positive one
        p = ReducedParams(beta=5.0)
        traj = run_schedule(p, SweepSchedule((0.0, 0.1), 0.05), init_phi_hint=1.0)
        assert traj.samples[0].phi == pytest.approx(0.7808611255265885, abs=1e-12)

    def test_overflowing_total_flux_is_rejected_at_every_entry_point(self):
        # the drives and the bias are finite, their sum c is not
        p = ReducedParams(beta=5.0, phi_fe=1e308)
        for call in (lambda: run_schedule(p, SweepSchedule((0.0, 1e308), 1e308)),
                     lambda: hysteresis_remnants(p, [1e308]),
                     lambda: hysteresis_remnants(ReducedParams(5.0, -1e308), [1e308]),
                     lambda: path_fluxes(p, [1.0, 1e308])):
            with pytest.raises(ValueError, match=r"phi_ext \+ phi_fe must be finite"):
                call()

    def test_rejects_non_finite_hint(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="init_phi_hint"):
                run_schedule(ReducedParams(beta=5.0), SweepSchedule((0.0, 0.1), 0.05),
                             init_phi_hint=bad)

    def test_initial_tie_breaks_toward_smaller_phi(self):
        # lambda = 1/4 at phi_ext = 1/2: the stable roots 1/4 and 3/4 lie
        # exactly 1/4 from the hint 1/2 with |i| = 1 both, a genuine tie
        p = ReducedParams(beta=TWO_PI * 0.25)
        traj = run_schedule(p, SweepSchedule((0.5, 0.6), 0.05), init_phi_hint=0.5)
        assert traj.samples[0].phi == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("base, step", FAR_DRIVES, ids=[str(b) for b, _ in FAR_DRIVES])
    def test_far_drive_matches_unit_scale(self, base, step):
        # one ulp of phi near 1e4 already exceeds 1e-12, so the branch solve
        # accepts |g| relative to max(1, |phi|); the model is periodic in
        # the drive, so the sweep must repeat the one near zero.  Above 1e12
        # the step is a multiple of ulp(base), so no two sub-step drives collide
        p = ReducedParams(beta=5.0, phi_fe=0.1)
        far = run_schedule(p, SweepSchedule((base, base + 2, base - 2, base), step),
                           init_phi_hint=base)
        near = run_schedule(p, SweepSchedule((0.0, 2.0, -2.0, 0.0), step))
        assert len(far.samples) == len(near.samples)
        assert ([e.landing_index for e in far.events]
                == [e.landing_index for e in near.events])
        for a, b in zip(far.samples, near.samples):
            assert a.branch_id == b.branch_id + int(base)
            assert abs(a.phi - base - b.phi) <= 8 * math.ulp(base)

    def test_far_drive_decides_folds_in_the_cell(self):
        # at 1e14 the level k + 1/2 + w rounds 1/64 from its true value; the
        # cell drive c - k is exact, so the sweep keeps each branch until its
        # own fold and jumps where the near sweep jumps, shifted by 1e14
        p, base = ReducedParams(beta=5.0, phi_fe=0.1), 1e14
        far = run_schedule(p, SweepSchedule((base, base + 2, base - 2, base), 0.01),
                           init_phi_hint=base)
        near = run_schedule(p, SweepSchedule((0.0, 2.0, -2.0, 0.0), 0.01))
        assert len(far.events) == len(near.events) == 6
        for a, b in zip(far.events, near.events):
            assert (far.samples[a.landing_index].branch_id
                    == near.samples[b.landing_index].branch_id + int(base))
            for x, y in ((a.phi_ext_at_jump, b.phi_ext_at_jump),
                         (a.phi_before, b.phi_before), (a.phi_after, b.phi_after)):
                assert abs(x - base - y) <= math.ulp(base)

    def test_fold_cap_counts_the_folds_of_one_sub_step(self):
        # one sub-step from 0 to 64.5 at beta 5 crosses exactly 64 folds
        p = ReducedParams(beta=5.0)
        traj = run_schedule(p, SweepSchedule((0.0, 64.5), 64.5))
        assert len(traj.events) == sweep._MAX_JUMPS_PER_STEP == 64
        assert traj.samples[-1].branch_id == 64
        with pytest.raises(NumericsError, match="more than 64 folds inside one sub-step"):
            run_schedule(p, SweepSchedule((0.0, 65.5), 65.5))


# sha256 of _schedule_bits(); a deliberate change of any sample, event or
# raise message updates it, with a ledger of what moved in CHANGES.md
FROZEN_SCHEDULE_BITS = "f8c386638584302e5550e84387779512c9a66bb0f8326d5610f5599144dddd28"


def _schedule_bits(n=200, seed=11):
    """sha256 over n seeded run_schedule calls: every sample with its cell
    root, every jump event, the waypoint indices and the loop_area, or the
    NumericsError message.

    Draws: beta - 1 in [1e-13, 1e-8.5] (where landings fail), beta in
    [0.2, 1] and in [1, 100], |phi_fe| <= 3, steps log-uniform in
    [0.01, 0.7], loops from the virgin state and random paths with hints
    away from 0.
    """
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(n):
        regime = rng.randrange(3)
        beta = (1.0 + 10.0 ** rng.uniform(-13.0, -8.5) if regime == 0
                else rng.uniform(0.2, 1.0) if regime == 1 else rng.uniform(1.0, 100.0))
        p = ReducedParams(beta, rng.uniform(-3.0, 3.0))
        step = 10.0 ** rng.uniform(-2.0, math.log10(0.7))
        if rng.random() < 0.5:
            amp = rng.uniform(0.5, 4.0)
            waypoints, hint = (0.0, amp, 0.0, -amp, 0.0), 0.0
        else:
            waypoints = tuple(rng.uniform(-4.0, 4.0) for _ in range(rng.randint(2, 6)))
            hint = rng.uniform(-3.0, 3.0)
        try:
            traj = run_schedule(p, SweepSchedule(waypoints, step), init_phi_hint=hint)
        except NumericsError as exc:
            h.update(f"raise {exc}\n".encode())
            continue
        for s in traj.samples:
            h.update(f"{s.phi_ext!r} {s.phi!r} {s.i!r} {s.branch_id} {s.u!r}\n".encode())
        for e in traj.events:
            h.update(f"{e.phi_ext_at_jump!r} {e.phi_before!r} {e.phi_after!r} "
                     f"{e.landing_index}\n".encode())
        h.update(f"{traj.waypoint_indices} {loop_area(traj, p)!r}\n".encode())
    return h.hexdigest()


def test_run_schedule_bits_are_frozen():
    assert _schedule_bits() == FROZEN_SCHEDULE_BITS
