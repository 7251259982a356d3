"""Root finding and stability classification of the flux balance."""

import hashlib
import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import TWO_PI, brute_force_roots, brute_stability, residual_formula
from ringflux import fixed_points
from ringflux.bloch_cpr import FreeEnergyModel, reduced_cpr
from ringflux.fixed_points import (
    FixedPoint,
    Relation,
    Stability,
    classify_stability,
    find_fixed_points,
    residual,
    residual_derivative,
)
from ringflux.ring_model import ReducedParams

# frozen with the brute-force oracle (step 1e-5, bisection refined): the
# roots at beta=5, phi_ext=0 besides the origin
BETA5_OUTER_ROOT = 0.7808611255265885
BETA5_INNER_ROOT = 0.6532705387294074


class TestResidual:
    def test_odd_symmetry_origin(self):
        assert residual(0.0, 0.0, ReducedParams(beta=3.0)) == 0.0

    def test_sine_zero_at_half(self):
        p = ReducedParams(beta=TWO_PI * 0.3)  # lambda = 0.3
        assert residual(0.5, 0.5, p) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_flux_tangency_case(self):
        # phi=3/4 at phi_ext=1/2 with lambda=1/4: 0.75 - 0.5 + 0.25*sin(3*pi/2)
        # = 0, a root on the window edge |phi - c| = lambda where the line
        # touches the sinusoid's minimum; the brute scan of g must agree
        p = ReducedParams(beta=TWO_PI * 0.25)
        assert residual(0.75, 0.5, p) == pytest.approx(0.0, abs=1e-15)
        roots = brute_force_roots(0.5, p.beta)
        assert np.min(np.abs(roots - 0.75)) < 1e-6

    def test_matches_formula_on_grid(self):
        p = ReducedParams(beta=4.2, phi_fe=-0.17)
        rng = np.random.default_rng(3)
        for _ in range(200):
            phi = float(rng.uniform(-4, 4))
            pe = float(rng.uniform(-3, 3))
            assert residual(phi, pe, p) == pytest.approx(
                float(residual_formula(phi, pe, p.beta, p.phi_fe)), rel=1e-15, abs=1e-15)

    def test_derivative_matches_finite_difference(self):
        p = ReducedParams(beta=7.0)
        h = 1e-7
        for phi in np.linspace(-1.3, 1.7, 23):
            fd = (residual(phi + h, 0.0, p) - residual(phi - h, 0.0, p)) / (2 * h)
            assert residual_derivative(phi, p) == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestFindFixedPoints:
    def test_single_root_below_unity_beta(self):
        roots = find_fixed_points(0.0, ReducedParams(beta=0.5))
        assert len(roots) == 1
        assert roots[0].phi == pytest.approx(0.0, abs=1e-12)
        assert roots[0].stability is Stability.STABLE

    def test_beta5_symmetric_triple(self):
        # the symmetric root set at zero drive: the stable origin flanked by
        # an unstable/stable pair on each side
        roots = find_fixed_points(0.0, ReducedParams(beta=5.0))
        assert len(roots) == 5
        assert [r.stability for r in roots] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE,
            Stability.UNSTABLE, Stability.STABLE]
        expected = [-BETA5_OUTER_ROOT, -BETA5_INNER_ROOT, 0.0,
                    BETA5_INNER_ROOT, BETA5_OUTER_ROOT]
        for r, phi in zip(roots, expected):
            assert r.phi == pytest.approx(phi, abs=1e-12)

    def test_shift_identity_is_exact(self):
        a = find_fixed_points(0.7, ReducedParams(beta=5.0, phi_fe=-0.7))
        b = find_fixed_points(0.0, ReducedParams(beta=5.0))
        assert [r.phi for r in a] == [r.phi for r in b]

    def test_every_root_satisfies_contract(self):
        p = ReducedParams(beta=8.0, phi_fe=0.2)
        for pe in (-2.3, -0.4, 0.0, 1.1, 2.9):
            for r in find_fixed_points(pe, p):
                assert abs(residual(r.phi, pe, p)) <= 1e-12
                assert r.i == pytest.approx(math.sin(TWO_PI * r.phi), abs=1e-14)
                assert abs(r.phi - (pe + p.phi_fe)) <= p.lam + 1e-9

    def test_root_set_odd_symmetry(self):
        p = ReducedParams(beta=6.0)
        for pe in (0.3, 0.75, 1.6, 2.2):
            plus = find_fixed_points(pe, p)
            minus = find_fixed_points(-pe, p)
            assert len(plus) == len(minus)
            for rp, rm in zip(plus, reversed(minus)):
                assert rp.phi == pytest.approx(-rm.phi, abs=1e-11)
                assert rp.stability == rm.stability

    def test_stability_alternation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = ReducedParams(beta=float(rng.uniform(1.2, 15.0)))
            roots = find_fixed_points(float(rng.uniform(-3, 3)), p)
            kinds = [r.stability for r in roots]
            if Stability.MARGINAL in kinds:
                continue
            for a, b in zip(kinds, kinds[1:]):
                assert a != b
            assert kinds[0] is Stability.STABLE
            assert kinds[-1] is Stability.STABLE

    def test_unique_root_for_small_beta_over_three_periods(self):
        p = ReducedParams(beta=0.9)
        for pe in np.linspace(-1.6, 1.6, 161):
            assert len(find_fixed_points(float(pe), p)) == 1

    def test_agrees_with_brute_force_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            beta = float(rng.uniform(0.05, 20.0))
            pe = float(rng.uniform(-3.0, 3.0))
            p = ReducedParams(beta=beta)
            mine = find_fixed_points(pe, p)
            brute = brute_force_roots(pe, beta)
            assert len(mine) == len(brute), (beta, pe)
            for r, b in zip(mine, brute):
                assert abs(r.phi - b) < 1e-6
                assert brute_stability(b, beta) == {
                    Stability.STABLE: 1, Stability.UNSTABLE: -1, Stability.MARGINAL: 0,
                }[r.stability]

    @pytest.mark.parametrize("phi_ext, beta, phi_fe", [
        (1.2345e4, 5.0, 0.2), (-3.7e4, 2.5, -0.1), (2.6e5, 12.0, 0.3),
        (-8.1e5, 40.0, 0.0), (1e9, 5.0, 0.0)])
    def test_far_drive_matches_unit_scale(self, phi_ext, beta, phi_fe):
        # one ulp of phi near 1e4 already exceeds 1e-12, so |g| is accepted
        # relative to max(1, |phi|); shifting the drive by an integer n
        # shifts every root by n, so the far problem repeats the near one
        p = ReducedParams(beta=beta, phi_fe=phi_fe)
        n = round(phi_ext)
        far = find_fixed_points(phi_ext, p)
        near = find_fixed_points(phi_ext - n, p)
        assert [r.stability for r in far] == [r.stability for r in near]
        for r, q in zip(far, near):
            assert abs(r.phi - (q.phi + n)) <= 2 * math.ulp(r.phi)
            # measured up to 3.4e-15 * |phi|
            assert abs(residual(r.phi, phi_ext, p)) <= 1e-14 * abs(r.phi)

    @pytest.mark.parametrize("n, beta", [(10**12, 5.0), (10**13, 40.0)])
    def test_very_far_drive_keeps_every_root(self, n, beta):
        # past |c| ~ 2e11 the root spacing is below 1e-12*|phi|, so only a
        # segment end met twice may be dropped, never a nearby root; the
        # roots are those at c = 0.3 shifted by n, each to about ulp(c)
        p = ReducedParams(beta=beta)
        far = find_fixed_points(n + 0.3, p)
        near = find_fixed_points(0.3, p)
        assert [r.stability for r in far] == [r.stability for r in near]
        for r, q in zip(far, near):
            assert abs(r.phi - (q.phi + n)) <= 2 * math.ulp(n + 0.3)

    def test_far_drive_keeps_the_current(self):
        # each root is solved in its unit cell, so the currents and classes
        # at c are those at c - round(c) bit for bit, where sin(2*pi*phi) of
        # the rounded far flux would be off by about 2*pi*ulp(c) = 7.7e-4
        p = ReducedParams(beta=5.0)
        c = 1e12 + 0.3
        far, near = find_fixed_points(c, p), find_fixed_points(c - 1e12, p)
        assert [(r.i, r.stability) for r in far] == [(r.i, r.stability) for r in near]
        for r, q in zip(far, near):
            assert abs(r.phi - (1e12 + q.phi)) <= math.ulp(r.phi)

    def test_roots_closer_than_an_ulp_of_the_drive_raise(self):
        # 25 roots at beta 40 within |phi - c| <= 6.4, some pairs closer
        # than ulp(1e15) = 0.125: no float can tell them apart
        with pytest.raises(fixed_points.NumericsError, match="no root resolved"):
            find_fixed_points(1e15 + 0.3, ReducedParams(beta=40.0))

    def test_overflowing_total_flux_rejected(self):
        with pytest.raises(ValueError, match=r"phi_ext \+ phi_fe must be finite"):
            find_fixed_points(1.7e308, ReducedParams(beta=5.0, phi_fe=1.7e308))

    @pytest.mark.parametrize("phi_ext", [math.inf, -math.inf, math.nan])
    def test_non_finite_drive_rejected(self, phi_ext):
        with pytest.raises(ValueError, match="phi_ext must be finite"):
            find_fixed_points(phi_ext, ReducedParams(beta=5.0))

    @pytest.mark.parametrize("phi_ext", [1e16, -1e16, 1e300])
    def test_unresolved_root_window_raises(self, phi_ext):
        # c +/- lambda rounds to c itself, so no segment is left to solve
        with pytest.raises(fixed_points.NumericsError, match="no root resolved"):
            find_fixed_points(phi_ext, ReducedParams(beta=5.0))

    def test_large_beta_roots_accepted_at_rounding_of_g(self):
        # |g'| reaches 1 + beta = 1e5 + 1, so |g| at the float root is about
        # |g'|*ulp(phi) (measured up to 0.64*(1 + beta)*ulp(phi)), far above
        # 1e-12*|phi| at |phi| ~ 1.6e4; the window |phi - c| <= lam spans
        # 2*lam = 31,831 periods with two roots each
        p = ReducedParams(beta=1e5)
        roots = find_fixed_points(0.3, p)
        assert len(roots) == 63663
        kinds = [r.stability for r in roots]
        assert kinds[0] is Stability.STABLE and kinds[-1] is Stability.STABLE
        assert all(a is not b for a, b in zip(kinds, kinds[1:]))
        assert Stability.MARGINAL not in kinds

    @pytest.mark.parametrize("beta", [1e9, 1e200])
    def test_root_window_past_the_cap_raises_up_front(self, beta):
        # beta 1e9 puts about 6.4e8 roots in the window, some 240 GB of records
        with pytest.raises(ValueError, match="MAX_ROOTS"):
            find_fixed_points(0.0, ReducedParams(beta=beta))

    @pytest.mark.parametrize("beta, phi_fe, phi_ext, relation", [
        (1.000000000002723, 0.8846139411315503, 0.6153860588684497, False),
        (1.000000000000429, 1.9399456070852734, 0.5600543929147266, True),
    ], ids=["sinusoid", "single-harmonic-relation"])
    def test_half_integer_drive_just_above_unity_finds_the_tangencies(
            self, beta, phi_fe, phi_ext, relation):
        # at c = 1.5 (2.5) the fold tangencies of g lie w ~ 7e-19 (1e-19)
        # above and below 0, but rounding leaves g there at about -5e-18, so
        # no segment changes sign; the rising segments' tangency band takes
        # them, where the scan used to return no root at all
        p = ReducedParams(beta=beta, phi_fe=phi_fe)
        if relation:
            rel, _ = reduced_cpr(FreeEnergyModel((8.749735574598887e-23,)))
            roots, crit = find_fixed_points(phi_ext, p, rel), rel.critical_points(p.lam)
        else:
            phi_a = fixed_points._branches(beta).phi_a
            roots, crit = find_fixed_points(phi_ext, p), [phi_a - 0.5, 0.5 - phi_a]
        c = phi_ext + phi_fe
        assert roots and all(r.stability is Stability.MARGINAL for r in roots)
        for r in roots:
            assert any(r.phi == j + t for j in (math.floor(c), math.ceil(c)) for t in crit)

    def test_residual_calls_per_root(self):
        # each segment is solved by bracketed Newton from its midpoint, which
        # takes about 7.9 evaluations of g per root here (segment ends
        # included), plus the one i(u) a root reports; bisection to machine
        # width took about 52.  The single-harmonic relation is the sinusoid
        # bit for bit, and cut at the sinusoid's segment ends it is the same
        # scan, so it counts the evaluations the inline sinusoid makes
        i, di, _ = reduced_cpr(FreeEnergyModel((1e-21,)))[0]
        calls = []

        def counting(u):
            calls.append(None)
            return i(u)

        rng = np.random.default_rng(8)
        n_roots = 0
        for _ in range(200):
            p = ReducedParams(beta=float(10.0 ** rng.uniform(math.log10(1.05), 2.0)),
                              phi_fe=float(rng.uniform(-0.5, 0.5)))
            phi_a = fixed_points._branches(p.beta).phi_a
            rel = Relation(counting, di, lambda lam: [phi_a - 0.5, 0.5 - phi_a])
            phi_ext = float(rng.uniform(-3.0, 3.0))
            roots = find_fixed_points(phi_ext, p, rel)
            assert roots == find_fixed_points(phi_ext, p)
            n_roots += len(roots)
        assert 0 < len(calls) <= 12 * n_roots


class TestClassifyStability:
    def test_small_beta_origin_stable(self):
        assert classify_stability(0.0, ReducedParams(beta=0.5)) is Stability.STABLE

    def test_large_beta_origin_unstable(self):
        # under screening the origin is stable for every beta; the unstable
        # point is the half quantum, where g' = 1 - beta
        p = ReducedParams(beta=5.0)
        assert residual_derivative(0.5, p) == pytest.approx(-4.0, rel=1e-15)
        assert classify_stability(0.5, p) is Stability.UNSTABLE

    def test_fold_threshold_is_marginal(self):
        # g'(1/2) = 1 - beta vanishes at beta = 1
        assert classify_stability(0.5, ReducedParams(beta=1.0)) is Stability.MARGINAL


def _folds(p):
    """The two folds (phi, phi_ext) of the flux period [0, 1): the end of
    branch 0 and the start of branch 1."""
    phi_a, w = fixed_points._branches(p.beta)[:2]
    phi_lo, phi_hi = -0.5 + phi_a, 0.5 - phi_a
    c_lo, c_hi = -(0.5 + w), 0.5 + w
    return [(phi_hi, c_hi - p.phi_fe), (1 + phi_lo, 1 + c_lo - p.phi_fe)]


class TestFoldLocations:
    @pytest.mark.parametrize("beta", [0.3, 0.9999, 1.0])
    def test_no_folds_at_or_below_unity(self, beta):
        branches = fixed_points._branches(beta)
        assert branches.e == branches.half == math.inf

    def test_beta2_sixths(self):
        # cos(2*pi*phi) = -1/2 at phi = 1/3 and 2/3
        folds = _folds(ReducedParams(beta=2.0))
        assert [phi for phi, _ in folds] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
        for phi, _ in folds:
            assert residual_derivative(phi, ReducedParams(beta=2.0)) == (
                pytest.approx(0.0, abs=1e-12))

    def test_folds_are_tangencies(self):
        p = ReducedParams(beta=5.0, phi_fe=0.25)
        for phi, phi_ext in _folds(p):
            assert abs(residual(phi, phi_ext, p)) < 1e-12
            assert abs(residual_derivative(phi, p)) < 1e-12

    def test_fold_drives_symmetric_about_period_midpoint(self):
        p = ReducedParams(beta=5.0)
        lo, hi = (phi_ext for _, phi_ext in _folds(p))
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_tangency_offset_range(self):
        for beta in (1.01, 2.0, 50.0):
            assert 0.0 < fixed_points._branches(beta).phi_a < 0.25
        branches = fixed_points._branches(1.0)
        assert branches.e == branches.half == math.inf

    @pytest.mark.parametrize("beta", [1.35e154, 1e200, 1e300])
    def test_fold_geometry_past_the_overflow_of_beta_squared(self, beta):
        # beta**2 - 1 overflows, while sqrt(beta**2 - 1) rounds to beta
        phi_a, w = fixed_points._branches(beta)[:2]
        assert phi_a == 0.25
        c_lo, c_hi = -(0.5 + w), 0.5 + w
        assert c_hi == -c_lo == pytest.approx(beta / TWO_PI, rel=1e-15)


# sha256 of _scan_bits(), computed on the scan before its segment rule was
# shared with the branch solve; a deliberate change of any root, current,
# class or raise message updates it, with a ledger of what moved in CHANGES.md
FROZEN_SCAN_BITS = "8e1060fff0e1fbbc984de891a83373b34945e30e40b77aca258ab3bffae7f192"


def _scan_bits(n=2000, seed=20):
    """sha256 over n seeded find_fixed_points calls: every root's flux,
    current and class, or the NumericsError message.

    Draws: the sinusoid with beta log-uniform in [0.2, 300] (two thirds),
    else one of eight K = 2-4 relations with beta log-uniform in [0.2, 30];
    |phi_fe| <= 3 and |phi_ext| <= 5.
    """
    rng = random.Random(seed)
    relations = []
    for _ in range(8):
        coeffs = [rng.uniform(-1.0, 1.0) * 1e-22 for _ in range(rng.randint(2, 4))]
        relations.append(reduced_cpr(FreeEnergyModel(tuple(coeffs)))[0])
    h = hashlib.sha256()
    for _ in range(n):
        if rng.random() < 2 / 3:
            beta, rel = 10.0 ** rng.uniform(math.log10(0.2), math.log10(300.0)), None
        else:
            beta = 10.0 ** rng.uniform(math.log10(0.2), math.log10(30.0))
            rel = rng.choice(relations)
        p = ReducedParams(beta, rng.uniform(-3.0, 3.0))
        try:
            roots = find_fixed_points(rng.uniform(-5.0, 5.0), p, rel)
        except fixed_points.NumericsError as exc:
            h.update(f"raise {exc}\n".encode())
            continue
        for r in roots:
            h.update(f"{r.phi!r} {r.i!r} {r.stability.value}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scan_bits_are_frozen():
    assert _scan_bits() == FROZEN_SCAN_BITS


def test_fixed_point_record_is_frozen():
    r = FixedPoint(0.0, 0.0, Stability.STABLE)
    with pytest.raises(AttributeError):
        r.phi = 1.0
