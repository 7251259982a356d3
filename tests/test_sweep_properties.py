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

from helpers import branch_index, three_branch_start
from ringflux import fixed_points, sweep
from ringflux.fixed_points import (WINDOW_MARGIN, NumericsError, Relation, Stability,
                                   classify_stability, find_fixed_points)
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
    # where g' is small (about 0.02 at the example) the float root is not
    # unique and depends on where its solve starts, so a sweep solves each
    # waypoint from the cell centre, as the kernel does: the same float
    [kernel] = hysteresis_remnants(ReducedParams(beta=beta, phi_fe=phi_fe), [amplitude])
    for loop in _loops(beta, phi_fe, amplitude):
        assert (loop.remnant_down, loop.remnant_up) == kernel


@given(beta=st.one_of(hysteretic_betas, st.floats(min_value=0.1, max_value=1.0)),
       phi_fe=st.floats(min_value=-0.5, max_value=0.5),
       waypoints=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=9))
# a cubic-flat root at beta 1, where the float a solve ends on depends on its
# start: every beta <= 1 solve starts from its window's midpoint
@example(beta=1.0, phi_fe=0.0, waypoints=[0.5, 0.0, 1.0])
def test_path_fluxes_match_the_sweep(beta, phi_fe, waypoints):
    # the same walk as the remnant kernel, read at every waypoint of a path
    drives = (0.0, *waypoints)
    assume(all(a != b for a, b in zip(drives, drives[1:])))
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    kernel = path_fluxes(p, waypoints)
    for step in STEPS:
        traj = run_schedule(p, SweepSchedule(drives, step))
        assert [traj.samples[i].phi for i in traj.waypoint_indices[1:]] == kernel


@settings(max_examples=200)
@given(beta=st.floats(min_value=-6.0, max_value=3.0).map(lambda u: 1.0 + 10.0 ** u),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       k=st.integers(min_value=-5, max_value=5), ascending=st.booleans())
def test_jump_lands_on_the_neighbouring_branch(beta, phi_fe, k, ascending):
    # the nearest stable root off the dying branch, from a full root scan,
    # lies on branch k + s; the landing is branch 0's scan root at the exact
    # cell drive -(1/2 - w) of branch k + 1, negated when descending, moved
    # to branch k + s bit for bit
    p, s = ReducedParams(beta=beta, phi_fe=phi_fe), 1 if ascending else -1
    at, before, landing = resolve_jump(p, k, ascending)
    phi_a, w = fixed_points._branches(beta)[:2]
    assert at == (k + (0.5 + w) if ascending else k - (0.5 + w)) - phi_fe
    assert before == (k + 0.5 - phi_a if ascending else k - 0.5 + phi_a)
    nearest = min((r for r in find_fixed_points(at, p)
                   if r.stability is Stability.STABLE and branch_index(r.phi, beta) != k),
                  key=lambda r: (abs(r.phi - before), abs(r.i), r.phi))
    assert branch_index(nearest.phi, beta) == k + s
    [cell] = [r for r in find_fixed_points(-(0.5 - w), ReducedParams(beta))
              if r.stability is Stability.STABLE and branch_index(r.phi, beta) == 0]
    assert (landing.phi, landing.i, landing.stability) == (
        k + s + s * cell.phi, s * cell.i, Stability.STABLE)
    assert branch_index(landing.phi, beta) == k + s


@settings(max_examples=200)
@given(beta=st.one_of(st.floats(min_value=-12.0, max_value=3.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.1, max_value=1.0)),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       drive=st.floats(min_value=-5.0, max_value=5.0),
       snap=st.sampled_from((None, None, None, None, -1e-6, 1e-6)),
       hint=st.floats(min_value=-4.0, max_value=4.0),
       offset=st.one_of(st.just(0), st.integers(min_value=-10**6, max_value=10**6)))
# the only root, 1.499999775028179, is Marginal: the tangency at the upper
# end of stable segment 1, which its branch solve owns
@example(beta=1.0 + 1e-12, phi_fe=0.0, drive=1.5, snap=None, hint=0.0, offset=0)
# a cubic-flat root: a solve with slope 1 + beta*cos instead of
# residual_derivative lands 1.5e-7 away
@example(beta=1.0, phi_fe=0.5, drive=0.0, snap=None, hint=0.0, offset=0)
# m = round(hint) = 0, but the pick is branch 1's root 0.78, not branch 0's
# root 0, which lies farther from the hint
@example(beta=5.0, phi_fe=0.0, drive=0.0, snap=None, hint=0.45, offset=0)
# one ulp of the drive (1.2e-10) exceeds the 1e-12 window-merge rule
@example(beta=5.0, phi_fe=0.3, drive=0.2, snap=None, hint=-3.0, offset=10**6)
# no STABLE root: the Marginal root nearest the hint, 2.5000000025899, is
# the falling segment's, so the pick is branch 2's root 2.4999981513
@example(beta=1.000000000000001, phi_fe=0.0, drive=2.5, snap=None, hint=2.5, offset=0)
# the pick is the tangency 15.5000000058, branch 16's lower end u = -e,
# which the flux alone (branch_index) would put on branch 15 with u > e
@example(beta=1.0000000000000007, phi_fe=0.0, drive=15.499999999999998, snap=None,
         hint=45.10591822833882, offset=0)
def test_virgin_state_is_the_scan_pick(beta, phi_fe, drive, snap, hint, offset):
    # the sweep's start solves at most three stable branches, and must pick
    # what a full root scan picks: the nearest STABLE root, else the nearest
    # MARGINAL one on a stable segment [j - e, j + e], ties to smaller |i|
    # and then smaller phi; an integer offset moves both drive and hint far
    # out.  A start's flux is its branch solve's, on its own segment
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    drive, hint = drive + offset, hint + offset
    if snap is not None:  # a third of the drives: c a half-integer, +/- 1e-6
        drive = math.floor(drive + phi_fe) + 0.5 + snap - phi_fe
    roots = find_fixed_points(drive, p)
    e = fixed_points._branches(beta).e
    pool = [r for r in roots if r.stability is Stability.STABLE]
    marginal = not pool
    if marginal:  # a tangency j +/- e is rounded at ulp(j)
        pool = [r for r in roots if r.stability is Stability.MARGINAL
                and abs(r.phi - round(r.phi)) <= e + math.ulp(r.phi)]
    if not pool:
        with pytest.raises(NumericsError, match="no stable root"):
            sweep._initial_state(p, drive, hint)
        return
    want = min(pool, key=lambda r: (abs(r.phi - hint), abs(r.i), r.phi))
    got = sweep._initial_state(p, drive, hint)
    assert (got.phi_ext, got.phi, got.i) == (drive, want.phi, want.i)
    if not marginal:
        assert got.branch_id == branch_index(want.phi, beta)
    if beta > 1.0:
        assert abs(got.u) <= e and got.branch_id + got.u == got.phi


@given(beta=st.floats(min_value=-10.5, max_value=-8.5).map(lambda u: 1.0 + 10.0 ** u),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       amplitude=st.floats(min_value=0.25, max_value=3.0))
@example(beta=1.0 + 10.0 ** -10.5, phi_fe=0.0, amplitude=2.0)  # a Marginal landing
@example(beta=1.0 + 10.0 ** -8.5, phi_fe=0.0, amplitude=2.0)  # a Stable one
def test_kernels_raise_where_the_sweep_raises(beta, phi_fe, amplitude):
    # every jump lands on the one cell root of its beta, so the sweep and
    # both kernels fail together on a Marginal landing, or none does
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    path = (amplitude, 0.0, -amplitude, 0.0)
    raised = []
    for call in (lambda: run_schedule(p, SweepSchedule((0.0, *path), 0.05)),
                 lambda: hysteresis_remnants(p, [amplitude]),
                 lambda: path_fluxes(p, path)):
        try:
            call()
        except NumericsError as exc:
            assert "window below rounding" in str(exc)
            raised.append(True)
        else:
            raised.append(False)
    assert raised in ([False] * 3, [True] * 3)


def _branch_residual(p, d):
    """g in the unit cell of drive d, evaluated as the branch solve evaluates it."""
    return lambda u: u - d + p.lam * math.sin(TWO_PI * u)


@given(beta=hysteretic_betas, k=st.integers(min_value=-20, max_value=20),
       level=st.floats(min_value=0.01, max_value=0.99),
       start=st.floats(min_value=0.0, max_value=1.0))
@example(beta=1.0000024137087573, k=0, level=0.01, start=0.5)
def test_branch_solve_ends_on_the_canonical_float(beta, k, level, start):
    # branch k is solved in its cell at d = c - k, on [-e, e] = branch 0's
    # segment, and returns the cell root u; starts are cell coordinates
    p = ReducedParams(beta=beta)
    phi_a, w = fixed_points._branches(beta)[:2]
    c_lo, c_hi = k - (0.5 + w), k + (0.5 + w)
    c = c_lo + level * (c_hi - c_lo)
    a, b = -0.5 + phi_a, 0.5 - phi_a
    g, br = _branch_residual(p, c - k), fixed_points._branches(p.beta)
    got = [fixed_points._branch_root(c - k, br, p.beta, x0)  # phi_fe = 0: the drive is c
           for x0 in (0.5 * (a + b), a, b, 0.0, a + start * (b - a))]
    for x in got:
        # an end of an adjacent-float sign-change bracket, the one with the
        # smaller |g| (ties go to the smaller u)
        gx = g(x)
        brackets = [sorted((x, y))
                    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                    if (g(y) < 0.0) != (gx < 0.0)]
        assert gx == 0.0 or any(
            x == (lo if abs(g(lo)) <= abs(g(hi)) else hi) for lo, hi in brackets)
    # where g' is small the sign of g flips at rounding level over a few
    # floats, so starts may end on different brackets (5 ulps of u apart at
    # most over 20k drawn solves)
    assert max(got) - min(got) <= 8 * math.ulp(max(abs(x) for x in got))


def test_continuation_solve_takes_a_handful_of_evaluations():
    # a branch solve started from the previous sample, on its segment in
    # its cell clipped to the root window and with the slope g', counted
    # outside the segment ends, which it evaluates only where their sign is
    # in doubt; restarting as bisection once Newton had converged cost about
    # 20.  A waypoint's sample is solved from the cell centre instead, and
    # is skipped
    rng = random.Random(3)
    evals = solves = 0
    for _ in range(4):
        p = ReducedParams(beta=rng.uniform(1.2, 20.0), phi_fe=rng.uniform(-0.5, 0.5))
        cycle = run_hysteresis(p, rng.uniform(1.0, 5.0), 0.01).cycle
        samples, waypoints = cycle.samples, set(cycle.waypoint_indices)
        for n, (prev, cur) in enumerate(zip(samples, samples[1:]), 1):
            if cur.branch_id != prev.branch_id or cur.phi_ext == prev.phi_ext or n in waypoints:
                continue
            k = cur.branch_id
            d = cur.phi_ext + p.phi_fe - k
            phi_a = fixed_points._branches(p.beta).phi_a
            a, b = -0.5 + phi_a, 0.5 - phi_a
            lo, hi = d - p.lam - WINDOW_MARGIN, d + p.lam + WINDOW_MARGIN
            a, b = max(a, lo), min(b, hi)
            g = _branch_residual(p, d)
            fa, fb = g(a), g(b)
            if not (fa < -1e-12 and fb > 1e-12):
                continue  # a drive on the fold level returns the segment end

            def counted_sin(x):
                nonlocal evals
                evals += 1
                return math.sin(TWO_PI * x)

            rel = Relation(counted_sin, lambda x: TWO_PI * math.cos(TWO_PI * x),
                           lambda lam: [-0.5 + phi_a, 0.5 - phi_a])
            x = fixed_points._segment_root(d, p.lam, a, b, fa, fb, prev.u, p.beta, cpr=rel)
            assert (k + x, x) == (cur.phi, cur.u)
            solves += 1
    assert solves > 1000
    assert evals <= 6 * solves


def test_a_sub_step_inside_its_branch_evaluates_no_segment_end(monkeypatch):
    # a segment end whose sign is certain, the cell drive lying inside the
    # branch far beyond the rounding of g, is not evaluated: a sub-step's
    # math.sin calls are Newton's, from its start on, and the sample's
    # current.  Over whole loops that is under 6.5 calls per sample, against
    # 7.8 when every solve evaluated both ends, and at least the one call of
    # each sample's current, which a solver binding math.sin ahead of the
    # patch would not count
    rng = random.Random(3)
    angles, real_sin = [], math.sin

    def sin(x):
        angles.append(x)
        return real_sin(x)

    calls = samples = checked = 0
    for _ in range(4):
        p = ReducedParams(beta=rng.uniform(1.2, 20.0), phi_fe=rng.uniform(-0.5, 0.5))
        amplitude = rng.uniform(1.0, 5.0)
        with monkeypatch.context() as m:
            m.setattr(math, "sin", sin)
            cycle = run_hysteresis(p, amplitude, 0.01).cycle
        calls, samples = calls + len(angles), samples + len(cycle.samples)
        angles.clear()
        _, _, e, half, lam = fixed_points._branches(p.beta)
        waypoints = set(cycle.waypoint_indices)
        for n, (prev, cur) in enumerate(zip(cycle.samples, cycle.samples[1:]), 1):
            if cur.branch_id != prev.branch_id or cur.phi_ext == prev.phi_ext or n in waypoints:
                continue
            d = cur.phi_ext + p.phi_fe - cur.branch_id
            if not abs(d) < half - 1e-6:
                continue  # near a fold, where the end is evaluated
            a, b = max(-e, d - lam - WINDOW_MARGIN), min(e, d + lam + WINDOW_MARGIN)
            with monkeypatch.context() as m:
                m.setattr(math, "sin", sin)
                assert sweep.continue_branch(prev, cur.phi_ext, p) == cur
            # the first evaluation is Newton's start, clipped to the segment
            assert angles[0] == TWO_PI * min(max(prev.u, a), b)
            assert not {TWO_PI * a, TWO_PI * b} & set(angles[1:])
            angles.clear()
            checked += 1
    assert checked > 3000
    assert samples <= calls <= 6.5 * samples


@given(beta=st.one_of(st.floats(min_value=-13.0, max_value=-3.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.2, max_value=1.0),
                      st.floats(min_value=0.0, max_value=5.0).map(lambda u: 10.0 ** u)),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0), k=st.integers(-20, 20),
       level=st.sampled_from([-1, 0, 1]),
       offsets=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=3),
       step=st.floats(min_value=-3.0, max_value=math.log10(0.5)).map(lambda u: 10.0 ** u))
@example(beta=5.0, phi_fe=0.3, k=0, level=1, offsets=[1.0, -1.0], step=0.001)
@example(beta=1e5, phi_fe=0.0, k=3, level=-1, offsets=[-1.5, 1.5], step=0.01)
def test_every_sub_step_is_the_public_single_step(beta, phi_fe, k, level, offsets, step):
    # a sample that is neither a waypoint nor a jump landing is
    # continue_branch from the sample before it, bit for bit: the sweep's
    # loop and the public single step make one solve.  From branch k, one
    # unit inside its fold level k + level*half (at k without folds), the
    # drives run across it, where the branch solve evaluates its segment ends
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    half = fixed_points._branches(beta).half
    centre = k + level * half if half < math.inf else k
    waypoints = tuple(centre + x - phi_fe for x in (-level, *offsets))
    assume(all(a != b for a, b in zip(waypoints, waypoints[1:])))
    try:
        traj = run_schedule(p, SweepSchedule(waypoints, step), init_phi_hint=k)
    except NumericsError:
        return  # no stable start, or a landing below rounding
    skip = {*traj.waypoint_indices, *(e.landing_index for e in traj.events)}
    for n, (prev, cur) in enumerate(zip(traj.samples, traj.samples[1:]), 1):
        if n not in skip:
            assert repr(sweep.continue_branch(prev, cur.phi_ext, p)) == repr(cur)


@settings(max_examples=300)
@given(beta=st.one_of(st.floats(min_value=-13.0, max_value=-3.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.0, max_value=3.0).map(lambda u: 10.0 ** u),
                      st.floats(min_value=0.05, max_value=1.0)),
       phi_fe=st.floats(min_value=-3.0, max_value=3.0),
       drive=st.floats(min_value=-5.0, max_value=5.0),
       snap=st.sampled_from([None, 0.0, 1e-12, -1e-12, 1e-6, -1e-6]),
       hint=st.floats(min_value=-6.0, max_value=6.0))
@example(beta=1.000000000000001, phi_fe=0.0, drive=2.5, snap=None, hint=2.5)
@example(beta=1.0000000000000007, phi_fe=0.0, drive=15.499999999999998, snap=None,
         hint=45.10591822833882)
@example(beta=0.5, phi_fe=0.3, drive=-4.2, snap=None, hint=3.0)
def test_virgin_state_is_the_three_branch_search(beta, phi_fe, drive, snap, hint):
    # the start solves the hint's branch m alone when its root is STABLE and
    # nearer the hint than branches m -/+ 1 can reach, else all three: the
    # result, its branch and its cell root, or the raise, are the full
    # three-branch search's (helpers.three_branch_start) bit for bit, at
    # hints far from the drive, in the Marginal corners just above beta = 1
    # (drives snapped near half-integers) and without folds
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    if snap is not None:
        drive = math.floor(drive + phi_fe) + 0.5 + snap - phi_fe
    c = drive + phi_fe
    br = fixed_points._branches(p.beta)
    want = three_branch_start(lambda k: fixed_points._branch_root(c - k, br, p.beta),
                              lambda u: classify_stability(u, p).value,
                              c, br.half, hint)
    if want is None:
        with pytest.raises(NumericsError, match="no stable root"):
            sweep._initial_state(p, drive, hint)
        return
    got = sweep._initial_state(p, drive, hint)
    assert repr((got.phi_ext, got.phi, got.i, got.branch_id, got.u)) == repr((drive, *want))
