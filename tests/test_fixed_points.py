"""Root finding and stability classification of the flux balance."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import TWO_PI, brute_force_roots, brute_stability, residual_formula
from ringflux import fixed_points
from ringflux.fixed_points import (
    FixedPoint,
    Stability,
    branch_flux_range,
    classify_stability,
    find_fixed_points,
    residual,
    residual_derivative,
    stable_branch_interval,
    tangency_offset,
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

    def test_residual_calls_per_root(self, monkeypatch):
        # each segment is solved by bracketed Newton from its midpoint, which
        # takes about 7.5 calls per root here (segment ends included);
        # bisection to machine width took about 52
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return residual(*args, **kwargs)

        monkeypatch.setattr(fixed_points, "residual", counting)
        rng = np.random.default_rng(8)
        n_roots = 0
        for _ in range(200):
            p = ReducedParams(beta=float(10.0 ** rng.uniform(math.log10(1.05), 2.0)),
                              phi_fe=float(rng.uniform(-0.5, 0.5)))
            n_roots += len(find_fixed_points(float(rng.uniform(-3.0, 3.0)), p))
        assert len(calls) <= 12 * n_roots


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
    phi_lo, phi_hi = stable_branch_interval(0, p.beta)
    c_lo, c_hi = branch_flux_range(0, p.beta)
    return [(phi_hi, c_hi - p.phi_fe), (1 + phi_lo, 1 + c_lo - p.phi_fe)]


class TestFoldLocations:
    @pytest.mark.parametrize("beta", [0.3, 0.9999, 1.0])
    def test_no_folds_at_or_below_unity(self, beta):
        with pytest.raises(ValueError):
            stable_branch_interval(0, beta)
        with pytest.raises(ValueError):
            branch_flux_range(0, beta)

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
            assert 0.0 < tangency_offset(beta) < 0.25
        with pytest.raises(ValueError):
            tangency_offset(1.0)


def test_fixed_point_record_is_frozen():
    r = FixedPoint(0.0, 0.0, Stability.STABLE)
    with pytest.raises(AttributeError):
        r.phi = 1.0
