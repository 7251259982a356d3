"""Step-independence of hysteresis loops, checked on drawn parameters.

The loop area is exact and the folds sit on analytic tangencies, so the
area and the jump events of a loop must not depend on the sweep step, and
the fold-to-fold remnant kernel must land where the sweep lands.  A branch
solve ends on one canonical float, whatever its start, in a handful of
residual evaluations.

beta - 1 is drawn log-uniformly from [1e-6, 19] so the near-threshold
regime is covered.  Closer to 1 the area (which scales as (beta - 1)**2)
falls below the rounding of the branch integrals, and below about
1 + 1e-10 the sweep itself cannot place the landing root.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ringflux import fixed_points, sweep
from ringflux.fixed_points import (NumericsError, Stability, branch_flux_range,
                                   branch_index, find_fixed_points, stable_branch_interval)
from ringflux.ring_model import TWO_PI, ReducedParams
from ringflux.sweep import (SweepSchedule, hysteresis_remnants, path_fluxes, resolve_jump,
                            run_hysteresis, run_schedule)

STEPS = (0.05, 0.01)

hysteretic_betas = st.floats(min_value=-6.0, max_value=math.log10(19.0)).map(
    lambda u: 1.0 + 10.0 ** u)
loop_params = dict(
    beta=hysteretic_betas,
    phi_fe=st.floats(min_value=-0.5, max_value=0.5),
    amplitude=st.floats(min_value=1.0, max_value=5.0),
)


def _loops(beta, phi_fe, amplitude):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    return [run_hysteresis(p, amplitude, step) for step in STEPS]


@given(**loop_params)
def test_loop_area_does_not_depend_on_step(beta, phi_fe, amplitude):
    coarse, fine = _loops(beta, phi_fe, amplitude)
    assert coarse.loop_area == pytest.approx(
        fine.loop_area, rel=0.0, abs=1e-12 * max(1.0, abs(fine.loop_area)))


@given(**loop_params)
@example(beta=1.01, phi_fe=0.0, amplitude=2.0)
@example(beta=1.05, phi_fe=0.0, amplitude=2.0)
def test_loop_area_positive_when_hysteretic(beta, phi_fe, amplitude):
    for loop in _loops(beta, phi_fe, amplitude):
        if loop.cycle.events:
            assert loop.loop_area > 0.0


@given(**loop_params)
def test_jump_events_do_not_depend_on_step(beta, phi_fe, amplitude):
    coarse, fine = _loops(beta, phi_fe, amplitude)

    def jumps(loop):
        return [(e.phi_ext_at_jump, e.phi_before, e.phi_after) for e in loop.cycle.events]

    assert jumps(coarse) == jumps(fine)


@given(**{**loop_params, "beta": st.one_of(hysteretic_betas, st.floats(min_value=0.1, max_value=1.0))})
@example(beta=1.0000024137087573, phi_fe=-0.49976671809864337, amplitude=1.6050597291177118)
def test_kernel_remnants_match_the_sweep(beta, phi_fe, amplitude):
    # the kernel solves from the fluxoid k, the sweep from its previous
    # sample; where g' is small (about 0.02 at the example) the float root is
    # not unique and the two differ at rounding level (1.3e-15 there)
    [kernel] = hysteresis_remnants(ReducedParams(beta=beta, phi_fe=phi_fe), [amplitude])
    for loop in _loops(beta, phi_fe, amplitude):
        for swept, got in zip((loop.remnant_down, loop.remnant_up), kernel):
            assert branch_index(got, beta) == branch_index(swept, beta)
            assert got == pytest.approx(swept, rel=0.0, abs=1e-12)


@given(beta=st.one_of(hysteretic_betas, st.floats(min_value=0.1, max_value=1.0)),
       phi_fe=st.floats(min_value=-0.5, max_value=0.5),
       waypoints=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=9))
def test_path_fluxes_match_the_sweep(beta, phi_fe, waypoints):
    # the same walk as the remnant kernel, read at every waypoint of a path
    drives = (0.0, *waypoints)
    assume(all(a != b for a, b in zip(drives, drives[1:])))
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    kernel = path_fluxes(p, waypoints)
    for step in STEPS:
        traj = run_schedule(p, SweepSchedule(drives, step))
        for got, i in zip(kernel, traj.waypoint_indices[1:], strict=True):
            swept = traj.samples[i].phi
            assert branch_index(got, beta) == branch_index(swept, beta)
            assert got == pytest.approx(swept, rel=0.0, abs=1e-12)


@settings(max_examples=200)
@given(beta=st.floats(min_value=-6.0, max_value=3.0).map(lambda u: 1.0 + 10.0 ** u),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       k=st.integers(min_value=-5, max_value=5), ascending=st.booleans())
def test_jump_lands_on_the_neighbouring_branch(beta, phi_fe, k, ascending):
    # the nearest stable root off the dying branch, from a full root scan,
    # is the root of branch k +/- 1, solved alone bit for bit
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    at, before, landing = resolve_jump(p, k, ascending)
    end = 1 if ascending else 0
    assert at == branch_flux_range(k, beta)[end] - phi_fe
    assert before == stable_branch_interval(k, beta)[end]
    nearest = min((r for r in find_fixed_points(at, p)
                   if r.stability is Stability.STABLE and branch_index(r.phi, beta) != k),
                  key=lambda r: (abs(r.phi - before), abs(r.i), r.phi))
    assert (landing.phi, landing.i, landing.stability) == (
        nearest.phi, nearest.i, nearest.stability)
    assert branch_index(landing.phi, beta) == k + (1 if ascending else -1)


@settings(max_examples=200)
@given(beta=st.one_of(st.floats(min_value=-12.0, max_value=3.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.1, max_value=1.0)),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       drive=st.floats(min_value=-5.0, max_value=5.0),
       snap=st.sampled_from((None, None, None, None, -1e-6, 1e-6)),
       hint=st.floats(min_value=-4.0, max_value=4.0))
# the only root, 1.499999775028179, is Marginal and lies between stable
# segments 1 and 2, so a solve of stable segments alone finds no root
@example(beta=1.0 + 1e-12, phi_fe=0.0, drive=1.5, snap=None, hint=0.0)
# a cubic-flat root: a solve with slope 1 + beta*cos instead of
# residual_derivative lands 1.5e-7 away
@example(beta=1.0, phi_fe=0.5, drive=0.0, snap=None, hint=0.0)
def test_virgin_state_is_the_scan_pick(beta, phi_fe, drive, snap, hint):
    # the sweep's start solves three periods of the partition only, and
    # must pick what a full root scan picks: the nearest STABLE root, else
    # the nearest MARGINAL one, ties to smaller |i| and then smaller phi
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    if snap is not None:  # a third of the drives: c a half-integer, +/- 1e-6
        drive = math.floor(drive + phi_fe) + 0.5 + snap - phi_fe
    roots = find_fixed_points(drive, p)
    pool = ([r for r in roots if r.stability is Stability.STABLE]
            or [r for r in roots if r.stability is Stability.MARGINAL])
    if not pool:
        with pytest.raises(NumericsError, match="no stable root"):
            sweep._initial_state(p, drive, hint)
        return
    want = min(pool, key=lambda r: (abs(r.phi - hint), abs(r.i), r.phi))
    got = sweep._initial_state(p, drive, hint)
    assert (got.phi_ext, got.phi, got.i, got.branch_id) == (
        drive, want.phi, want.i, branch_index(want.phi, beta))


def _branch_residual(p, c):
    """g on a stable branch, evaluated as the branch solve evaluates it."""
    return lambda x: x - c + p.lam * math.sin(TWO_PI * x)


@given(beta=hysteretic_betas, k=st.integers(min_value=-20, max_value=20),
       level=st.floats(min_value=0.01, max_value=0.99),
       start=st.floats(min_value=0.0, max_value=1.0))
@example(beta=1.0000024137087573, k=0, level=0.01, start=0.5)
def test_branch_solve_ends_on_the_canonical_float(beta, k, level, start):
    p = ReducedParams(beta=beta)
    c_lo, c_hi = branch_flux_range(k, beta)
    c = c_lo + level * (c_hi - c_lo)
    a, b = stable_branch_interval(k, beta)
    g = _branch_residual(p, c)
    got = [sweep._solve_on_branch(p, k, c, x0)
           for x0 in (0.5 * (a + b), a, b, float(k), a + start * (b - a))]
    for x in got:
        # an end of an adjacent-float sign-change bracket, the one with the
        # smaller |g| (ties go to the smaller phi)
        gx = g(x)
        brackets = [sorted((x, y))
                    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                    if (g(y) < 0.0) != (gx < 0.0)]
        assert gx == 0.0 or any(
            x == (lo if abs(g(lo)) <= abs(g(hi)) else hi) for lo, hi in brackets)
    # where g' is small the sign of g flips at rounding level over a few
    # floats, so starts may end on different brackets (2 ulps apart at most
    # over 20k drawn solves)
    assert max(got) - min(got) <= 8 * math.ulp(max(abs(x) for x in got))


def test_continuation_solve_takes_a_handful_of_evaluations():
    # a branch solve started from the previous sample, counted outside the
    # two segment ends it always evaluates; restarting as bisection once
    # Newton had converged cost about 20
    rng = random.Random(3)
    evals = solves = 0
    for _ in range(4):
        p = ReducedParams(beta=rng.uniform(1.2, 20.0), phi_fe=rng.uniform(-0.5, 0.5))
        samples = run_hysteresis(p, rng.uniform(1.0, 5.0), 0.01).cycle.samples
        for prev, cur in zip(samples, samples[1:]):
            if cur.branch_id != prev.branch_id or cur.phi_ext == prev.phi_ext:
                continue
            c = cur.phi_ext + p.phi_fe
            a, b = stable_branch_interval(cur.branch_id, p.beta)
            g = _branch_residual(p, c)
            fa, fb = g(a), g(b)
            if not (fa < -1e-12 and fb > 1e-12):
                continue  # a drive on the fold level returns the segment end

            def f(x):
                nonlocal evals
                evals += 1
                return g(x)

            x, _ = fixed_points._bracketed_newton(
                f, lambda x: 1.0 + p.beta * math.cos(TWO_PI * x), a, b, fa, fb, prev.phi)
            assert x == cur.phi
            solves += 1
    assert solves > 1000
    assert evals <= 6 * solves
