"""Symmetries of the root set, checked on drawn parameters.

The flux balance phi = phi_ext + phi_fe - lam*sin(2*pi*phi) is periodic in
the drive, odd under (phi_ext, phi_fe, phi) -> (-phi_ext, -phi_fe, -phi),
and sees the bias only through c = phi_ext + phi_fe.  The hysteretic
window beyond each half-integer level, w = (t - atan t)/(2*pi) with
t = sqrt(beta**2 - 1), keeps its digits down to beta = 1 + 1e-14.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import branch_index, bracketed_newton
from ringflux import fixed_points
from ringflux.bloch_cpr import FreeEnergyModel, reduced_cpr
from ringflux.fixed_points import (DEFAULT_ROOT_TOL, WINDOW_MARGIN, NumericsError, Relation,
                                   Stability, find_fixed_points)
from ringflux.ring_model import TWO_PI, ReducedParams

betas = st.floats(min_value=0.1, max_value=40.0)
large_betas = st.floats(min_value=2.0, max_value=4.0).map(lambda u: 10.0 ** u)
biases = st.floats(min_value=-0.5, max_value=0.5)
drives = st.floats(min_value=-5.0, max_value=5.0)
shifts = st.integers(min_value=-20, max_value=20)


def _assert_shift_shifts_roots(beta, phi_fe, phi_ext, n, tol):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    roots = find_fixed_points(phi_ext, p)
    shifted = find_fixed_points(phi_ext + n, p)
    assert [r.stability for r in shifted] == [r.stability for r in roots]
    for s, r in zip(shifted, roots):
        assert s.phi == pytest.approx(r.phi + n, rel=0.0, abs=tol(r.phi))


@given(beta=betas, phi_fe=biases, phi_ext=drives, n=shifts)
def test_integer_drive_shift_shifts_every_root(beta, phi_fe, phi_ext, n):
    _assert_shift_shifts_roots(beta, phi_fe, phi_ext, n, lambda phi: 1e-12)


@given(beta=large_betas, phi_fe=biases, phi_ext=drives, n=shifts)
def test_integer_drive_shift_shifts_every_root_at_large_beta(beta, phi_fe, phi_ext, n):
    # |g'| reaches 1 + beta, so a root is placed to a few ulp of phi, which
    # exceeds 1e-12 once |phi| (up to about lam + 25) passes a few hundred
    _assert_shift_shifts_roots(beta, phi_fe, phi_ext, n,
                               lambda phi: 4 * math.ulp(abs(phi) + 21.0))


@given(beta=st.floats(min_value=-1.0, max_value=2.0).map(lambda u: 10.0 ** u),
       n=st.integers(min_value=-10**15, max_value=10**15), f=biases)
# an absolute-coordinate solve found 4 roots here, where the shifted set has 5
@example(beta=4.671020311769637, n=round(10**12.816782161057064), f=-0.006724811367058936)
def test_far_drive_shifts_the_near_roots(beta, n, f):
    # every root is solved in its unit cell, so the roots at c are round(c)
    # plus those at c - round(c), with the same currents and classes bit for
    # bit; only roots within 2*ulp(c) of each other, which round to one
    # float, make the far call raise
    p = ReducedParams(beta=beta)
    c = n + f
    m = round(c)
    near = find_fixed_points(c - m, p)
    try:
        far = find_fixed_points(c, p)
    except NumericsError:
        assert any(b.phi - a.phi <= 2 * math.ulp(c) for a, b in zip(near, near[1:]))
        return
    assert [(r.i, r.stability) for r in far] == [(r.i, r.stability) for r in near]
    for r, q in zip(far, near):
        assert abs(r.phi - (m + q.phi)) <= math.ulp(r.phi)


@given(beta=betas, phi_fe=biases, phi_ext=drives)
def test_mirrored_drive_mirrors_the_roots(beta, phi_fe, phi_ext):
    roots = find_fixed_points(phi_ext, ReducedParams(beta=beta, phi_fe=phi_fe))
    mirrored = find_fixed_points(-phi_ext, ReducedParams(beta=beta, phi_fe=-phi_fe))
    assert [r.stability for r in reversed(mirrored)] == [r.stability for r in roots]
    for m, r in zip(reversed(mirrored), roots):
        assert m.phi == pytest.approx(-r.phi, rel=0.0, abs=1e-12)


@given(beta=betas, phi_fe=biases, phi_ext=drives)
def test_bias_is_a_drive_translation(beta, phi_fe, phi_ext):
    biased = find_fixed_points(phi_ext, ReducedParams(beta=beta, phi_fe=phi_fe))
    shifted = find_fixed_points(phi_ext + phi_fe, ReducedParams(beta=beta))
    assert biased == shifted


def _window_reference(beta):
    """w for the float t that the library computes: the series
    t**3/3 - t**5/5 + ... summed exactly for t <= 0.9, and the float
    difference t - atan t above, where it loses under one digit."""
    t = math.sqrt((beta - 1.0) * (beta + 1.0))
    if t > 0.9:
        return Fraction((t - math.atan(t)) / TWO_PI)
    t2, term, n, total, sign = Fraction(t) ** 2, Fraction(t) ** 3, 3, Fraction(0), 1
    while True:
        total += sign * term / n
        if term / n < total * Fraction(1, 10 ** 20):
            return total / Fraction(TWO_PI)
        term, n, sign = term * t2, n + 2, -sign


@given(u=st.floats(min_value=-14.0, max_value=2.0), k=st.integers(-50, 50))
@example(u=-14.0, k=0)
@example(u=2.0, k=0)
@example(u=math.log10(math.sqrt(1.49) - 1.0), k=0)  # t = 0.7, where the series stops
@example(u=-8.0, k=0)
def test_fold_window_keeps_its_digits_near_unity(u, k):
    beta = 1.0 + 10.0 ** u
    w = fixed_points._branches(beta).w
    ref = _window_reference(beta)
    assert abs(Fraction(w) - ref) <= Fraction(1, 10 ** 15) * ref
    # c_hi - k - 1/2 is w up to the rounding of the level k + 1/2 + w
    c_hi = k + (0.5 + w)
    assert abs(Fraction(c_hi) - k - Fraction(1, 2) - ref) <= (
        Fraction(1, 10 ** 15) * ref + Fraction(math.ulp(c_hi)))


SINUSOID = Relation(lambda u: math.sin(TWO_PI * u), lambda u: TWO_PI * math.cos(TWO_PI * u),
                    reduced_cpr(FreeEnergyModel((1e-21,)))[0].critical_points)
K2_RELATION = reduced_cpr(FreeEnergyModel((1.8e-22, -3.2e-22)))[0]


@settings(max_examples=300)
@given(beta=st.one_of(st.floats(min_value=-12.0, max_value=-3.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.2, max_value=1.0),
                      st.floats(min_value=0.0, max_value=4.0).map(lambda u: 10.0 ** u)),
       relation=st.booleans(), d=st.floats(min_value=-1.0, max_value=1.0),
       cut=st.floats(min_value=0.0, max_value=1.0),
       start=st.floats(min_value=-0.25, max_value=1.25))
def test_segment_root_matches_the_callable_reference(beta, relation, d, cut, start):
    # the inline Newton loop against the same loop through g and g' as
    # callables: a bracket cut from the root window at a drawn point, a
    # start drawn across it and beyond its ends.  Through a relation both
    # visit the same points; the inline sinusoid ends where the relation's
    # copy of it ends, with the reference's g at the root
    rel = K2_RELATION if relation else SINUSOID
    i, di = rel.i, rel.di
    lam = ReducedParams(beta=beta).lam
    visited = {"reference": [], "kernel": []}

    def visiting(key):
        def i_visit(u):
            visited[key].append(u)
            return i(u)
        return i_visit

    def g(u):
        return u - d + lam * i(u)

    lo, hi = d - lam - WINDOW_MARGIN, d + lam + WINDOW_MARGIN
    m = lo + cut * (hi - lo)
    gm = g(m)
    assume(lo < m < hi and gm != 0.0)
    a, b = (lo, m) if gm > 0.0 else (m, hi)
    fa, fb = g(a), g(b)
    assume(fa < 0.0 < fb)
    x0 = a + start * (b - a)
    i_ref = visiting("reference")
    want = bracketed_newton(lambda u: u - d + lam * i_ref(u), lambda u: 1.0 + lam * di(u),
                            a, b, fa, fb, x0)
    x, r = want
    if abs(r) <= DEFAULT_ROOT_TOL or abs(r) <= 2.0 * (1.0 + beta) * math.ulp(1.0):
        expected = [x.hex(), r.hex()]
    else:  # far outside the unit cell g rounds beyond the acceptance bound
        expected = f"root at u={x!r} of its cell has residual {r:.3e}"

    def outcome(cpr=None):
        try:
            u = fixed_points._segment_root(d, lam, a, b, fa, fb, x0, beta, cpr=cpr)
        except NumericsError as exc:
            return str(exc).split(" > ")[0]
        return [u.hex(), g(u).hex()]

    assert outcome(rel._replace(i=visiting("kernel"))) == expected
    assert visited["kernel"] == visited["reference"]
    if not relation:
        assert outcome() == expected


@settings(max_examples=300)
@given(beta=st.one_of(st.floats(min_value=-16.0, max_value=-6.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.0, max_value=3.0).map(lambda u: 10.0 ** u)),
       k=st.integers(min_value=-50, max_value=50), level=st.sampled_from([0, 1, -1]),
       ulps=st.integers(min_value=-4, max_value=4),
       phi_fe=st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)))
@example(beta=1.000000000002723, k=1, level=0, ulps=0, phi_fe=0.8846139411315503)
@example(beta=1.0000000000071043, k=6, level=0, ulps=0, phi_fe=0.0)  # same-cell meeting
@example(beta=1.0000000360263337, k=-1, level=-1, ulps=0,
         phi_fe=0.12970246442221312)  # across a period
def test_scan_is_never_empty_and_agrees_with_the_branch_solve(beta, k, level, ulps, phi_fe):
    # drives at half-integers, where rounding leaves both fold tangencies of
    # a near-unity beta unbracketed, and at fold levels k +/- (1/2 + w), each
    # moved by a few ulps: the scan returns roots, ascending, so no tangency
    # is reported twice, and the root of every stable segment is the branch
    # solve's float
    assume(beta > 1.0)
    w = fixed_points._branches(beta).w
    c = k + 0.5 if level == 0 else k + level * (0.5 + w)
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.copysign(math.inf, ulps))
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    phi_ext = c - phi_fe
    roots = find_fixed_points(phi_ext, p)
    phis = [r.phi for r in roots]
    assert roots and all(a < b for a, b in zip(phis, phis[1:]))
    c, br = phi_ext + phi_fe, fixed_points._branches(p.beta)
    for j in range(math.floor(c - p.lam) - 1, math.ceil(c + p.lam) + 2):
        u = fixed_points._branch_root(c - j, br, p.beta)
        assert u is None or j + u in phis
    for r in roots:
        if r.stability is Stability.STABLE:
            j = branch_index(r.phi, beta)
            assert r.phi == j + fixed_points._branch_root(c - j, br, p.beta)


@settings(max_examples=300)
@given(beta=st.one_of(st.floats(min_value=-13.0, max_value=-1.0).map(lambda u: 1.0 + 10.0 ** u),
                      st.floats(min_value=0.0, max_value=5.0).map(lambda u: 10.0 ** u),
                      st.floats(min_value=0.05, max_value=1.0)),
       level=st.sampled_from([-1, 0, 1]), where=st.floats(min_value=-1.0, max_value=1.0),
       offset=st.floats(min_value=-1e-9, max_value=1e-9), ulps=st.integers(-8, 8),
       start=st.sampled_from([None, 0.0, -0.5, 0.5]))
# g at the fold end rounds to 0 one ulp inside the branch: a tangency
@example(beta=3.7235160352141907, level=1, where=0.0, offset=0.0, ulps=-1, start=None)
@example(beta=19.743764366755, level=-1, where=0.0, offset=0.0, ulps=1, start=0.0)
@example(beta=1.0 + 1e-12, level=1, where=0.0, offset=0.0, ulps=-1, start=0.0)
@example(beta=1e5, level=0, where=0.9999, offset=0.0, ulps=0, start=0.5)
def test_branch_solve_ends_where_the_solve_of_both_evaluated_ends_ends(
        beta, level, where, offset, ulps, start):
    # the branch solve signs a segment end without evaluating it where the
    # cell drive lies inside the branch far beyond the rounding of g there;
    # at fold levels moved by a little and by a few ulps, and across the
    # branch where window ends clip it, it returns the root, None or the
    # raise of the solve that evaluates both ends first
    p = ReducedParams(beta=beta)
    _, _, e, half, lam = fixed_points._branches(beta)
    if level == 0 or half == math.inf:
        d = where * min(half, lam + 1.0)
    else:
        d = level * half + offset * (1.0 + lam)
    for _ in range(abs(ulps)):
        d = math.nextafter(d, math.copysign(math.inf, ulps))
    a, b = max(-e, d - lam - WINDOW_MARGIN), min(e, d + lam + WINDOW_MARGIN)

    def both_ends():
        if not a < b:
            return None
        fa, fb = (x - d + lam * math.sin(TWO_PI * x) for x in (a, b))
        x0 = start if e < math.inf else None
        return fixed_points._segment_root(d, lam, a, b, fa, fb, x0, beta)

    def outcome(solve):
        try:
            return repr(solve())
        except NumericsError as exc:
            return f"raise {exc}"

    br = fixed_points._branches(p.beta)
    assert outcome(lambda: fixed_points._branch_root(d, br, p.beta, start)) == outcome(both_ends)
