"""Free-energy series, the induced current, and symmetry guarantees."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.testing import assert_allclose

from helpers import brute_force_roots, central_difference, residual_formula, series_current
from ringflux.bloch_cpr import (
    FreeEnergyModel,
    current,
    finite_difference_current_error,
    free_energy,
    fundamental_harmonic,
    reduced_cpr,
    validate_symmetries,
)
from ringflux.fixed_points import find_fixed_points
from ringflux.ring_model import FLUX_QUANTUM, TWO_PI, ReducedParams

PHI0 = FLUX_QUANTUM


def _random_model(seed, k=5, scale=1e-21):
    rng = np.random.default_rng(seed)
    return FreeEnergyModel(tuple(float(c) for c in rng.uniform(-scale, scale, k)), PHI0)


def _dense_roots(model, i_j, phi_ext, beta):
    """Roots of g for the model's relation by a 400,001-point sign-change scan
    (bisection refined), the relation evaluated from the series by the numpy
    oracle."""
    step = (beta / TWO_PI + 1e-9) / 200000.0
    return brute_force_roots(
        phi_ext, beta, step=step,
        cpr=lambda x: series_current(model.coeffs, model.Phi0, x * model.Phi0) / i_j)


class TestFreeEnergy:
    def test_zero_flux_sums_coefficients(self):
        model = FreeEnergyModel((1e-21, -2e-22, 3e-23), PHI0)
        assert free_energy(model, 0.0) == pytest.approx(sum(model.coeffs), rel=1e-15)

    def test_periodicity_by_construction(self):
        model = _random_model(1)
        for Phi in np.linspace(-PHI0, PHI0, 37):
            assert free_energy(model, Phi + 7 * PHI0) == pytest.approx(
                float(free_energy(model, Phi)), rel=1e-9, abs=1e-33)

    def test_half_quantum_flips_single_harmonic(self):
        model = FreeEnergyModel((4.2e-21,), PHI0)
        assert free_energy(model, PHI0 / 2) == pytest.approx(-4.2e-21, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FreeEnergyModel((math.nan,), PHI0)
        with pytest.raises(ValueError):
            FreeEnergyModel((1e-21,), 0.0)

    @pytest.mark.parametrize("coeffs, phi0", [((1e300,), PHI0), ((0.0, 1e-11), 1e-320)],
                             ids=["huge-c", "subnormal-Phi0"])
    def test_model_with_an_overflowing_amplitude_rejected(self, coeffs, phi0):
        # finite coefficients whose current amplitude 2*pi*k*c_k/Phi0 overflows
        with pytest.raises(ValueError, match="amplitudes"):
            FreeEnergyModel(coeffs, phi0)

    @pytest.mark.parametrize("phi0", [1e-320, 2.2250738585072e-308])
    def test_subnormal_flux_quantum_rejected(self, phi0):
        # the finite-difference step 2*FD_REL_STEP*Phi0 underflows to 0 at
        # 1e-320, and a subnormal Phi0 leaves the checks without their digits
        with pytest.raises(ValueError, match="Phi0 must be a normal float"):
            FreeEnergyModel((1e-323,), phi0)
        assert FreeEnergyModel((1e-323,), 2.2250738585072014e-308).Phi0 > 0.0

    @pytest.mark.parametrize("coeffs", [(), (0.0,), (0.0, -0.0, 0.0)])
    def test_model_without_current_rejected(self, coeffs):
        # with no current every relative symmetry deviation reads 0 against
        # a scale of 1, so a check of such a model would pass vacuously
        with pytest.raises(ValueError, match="no current"):
            FreeEnergyModel(coeffs, PHI0)

    @pytest.mark.parametrize("coeffs, phi0", [
        ((2e307, 1e307), 1.0),
        (tuple(1.7e308 / (TWO_PI * k) for k in range(1, 501)), 1e10),
    ], ids=["amplitudes", "coefficients"])
    def test_model_whose_series_sum_overflows_rejected(self, coeffs, phi0):
        # every amplitude and coefficient is finite, but the sum of |a_k| (or
        # of |c_k|), which bounds the current (or the free energy), is not
        with pytest.raises(ValueError, match="amplitudes"):
            FreeEnergyModel(coeffs, phi0)


class TestCurrent:
    def test_zero_at_zero_flux(self):
        assert current(_random_model(2), 0.0) == pytest.approx(0.0, abs=1e-40)

    def test_single_harmonic_is_sinusoidal(self):
        I0 = 1.0
        model = FreeEnergyModel((I0 * PHI0 / TWO_PI,), PHI0)
        for phi in np.linspace(-1.0, 1.0, 41):
            assert current(model, phi * PHI0) == pytest.approx(
                I0 * math.sin(TWO_PI * phi), abs=1e-12)

    def test_quarter_flux_unit_current(self):
        # c_1 chosen so the fundamental amplitude is exactly 1 A; checked
        # against a central finite difference of the free energy
        model = FreeEnergyModel((PHI0 / TWO_PI,), PHI0)
        value = float(current(model, PHI0 / 4))
        assert value == pytest.approx(1.0, rel=1e-12)
        h = 1e-6 * PHI0
        fd = -central_difference(lambda x: float(free_energy(model, x)), PHI0 / 4, h)
        assert value == pytest.approx(fd, rel=1e-6)

    def test_analytic_matches_finite_difference_everywhere(self):
        model = _random_model(3)
        h = 1e-6 * PHI0
        for Phi in np.linspace(-PHI0, PHI0, 101):
            fd = -central_difference(lambda x: float(free_energy(model, x)), Phi, h)
            scale = max(abs(fd), TWO_PI * max(abs(c) for c in model.coeffs) / PHI0)
            assert abs(float(current(model, Phi)) - fd) <= 1e-6 * scale

    def test_packaged_fd_check_agrees(self):
        assert finite_difference_current_error(_random_model(4)) < 1e-6


class TestSymmetries:
    def test_single_harmonic(self):
        report = validate_symmetries(FreeEnergyModel((1e-21,), PHI0))
        assert report.passed()

    def test_random_multi_harmonic(self):
        report = validate_symmetries(_random_model(5), grid_size=128)
        assert report.max_deviation() <= 1e-12

    def test_minimal_grid_smoke(self):
        report = validate_symmetries(_random_model(6), grid_size=16)
        assert report.passed()

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            validate_symmetries(_random_model(7), grid_size=8)

    def test_current_odd_and_periodic_on_grid(self):
        model = _random_model(8)
        Phi = np.linspace(-2 * PHI0, 2 * PHI0, 301)
        I = np.array([current(model, x) for x in Phi])
        scale = np.max(np.abs(I))
        assert_allclose([current(model, x + PHI0) for x in Phi], I, atol=1e-12 * scale)
        assert_allclose([current(model, -x) for x in Phi], -I, atol=1e-12 * scale)


class TestFundamentalHarmonic:
    def test_unit_normalization(self):
        assert fundamental_harmonic(FreeEnergyModel((PHI0 / TWO_PI,), PHI0)) == (
            pytest.approx(1.0, rel=1e-15))

    def test_pure_second_harmonic(self):
        assert fundamental_harmonic(FreeEnergyModel((0.0, 1e-21), PHI0)) == 0.0

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            fundamental_harmonic(FreeEnergyModel((), PHI0))

    def test_sign_follows_coefficient(self):
        assert fundamental_harmonic(FreeEnergyModel((-1e-21,), PHI0)) < 0.0


class TestMinimaPlacement:
    def test_negative_c1_minima_at_integer_flux(self):
        # free-energy minima at Phi = n*Phi0: the current vanishes and is
        # restoring (d2F/dPhi2 > 0, i.e. dI/dPhi < 0) there
        model = FreeEnergyModel((-3e-21,), PHI0)
        h = 1e-7 * PHI0
        for n in (-2, -1, 0, 1, 2):
            Phi = n * PHI0
            assert abs(float(current(model, Phi))) < 1e-12 * abs(
                fundamental_harmonic(model))
            dI = central_difference(lambda x: float(current(model, x)), Phi, h)
            assert dI < 0.0
            d2F = -dI
            assert d2F > 0.0

    def test_positive_c1_minima_at_half_integer_flux(self):
        model = FreeEnergyModel((3e-21,), PHI0)
        h = 1e-7 * PHI0
        for n in (-1, 0, 1):
            Phi = (n + 0.5) * PHI0
            assert abs(float(current(model, Phi))) < 1e-12 * abs(
                fundamental_harmonic(model))
            assert central_difference(lambda x: float(current(model, x)), Phi, h) < 0.0


class TestFixedPointIntegration:
    def test_single_harmonic_reproduces_sinusoidal_roots(self):
        # K=1 with c_1 > 0: the derived relation equals the sinusoid with
        # I_J = 2*pi*c_1/Phi0, so the fixed-point sets must coincide
        c1 = 2.4e-21
        model = FreeEnergyModel((c1,), PHI0)
        relation, i_j = reduced_cpr(model)
        assert i_j == pytest.approx(TWO_PI * c1 / PHI0, rel=1e-12)
        p = ReducedParams(beta=5.0, phi_fe=0.1)
        for pe in (0.0, -0.3, 0.45, 1.1, 2.4):
            direct = find_fixed_points(pe, p)
            via_model = find_fixed_points(pe, p, cpr=relation)
            assert len(direct) == len(via_model)
            for a, b in zip(direct, via_model):
                assert b.phi == pytest.approx(a.phi, abs=1e-10)
                assert b.stability == a.stability

    def test_negative_c1_shifts_roots_by_half_quantum(self):
        # c_1 < 0 flips the relation's sign; the root set at drive c equals
        # the positive-sign set at c + 1/2, shifted down by 1/2
        model = FreeEnergyModel((-2.4e-21,), PHI0)
        relation, _ = reduced_cpr(model)
        p = ReducedParams(beta=5.0)
        for pe in (0.0, 0.6, -1.2):
            shifted = find_fixed_points(pe + 0.5, p)
            via_model = find_fixed_points(pe, p, cpr=relation)
            assert len(via_model) == len(shifted)
            for a, b in zip(via_model, shifted):
                assert a.phi == pytest.approx(b.phi - 0.5, abs=1e-10)

    def test_two_harmonic_model_roots_satisfy_residual(self):
        model = FreeEnergyModel((2e-21, 4e-22), PHI0)
        relation, _ = reduced_cpr(model)
        p = ReducedParams(beta=4.0)
        roots = find_fixed_points(0.3, p, cpr=relation)
        assert roots
        for r in roots:
            g = residual_formula(r.phi, 0.3, p.beta, cpr=relation.i)
            assert abs(g) <= 1e-12

    def test_model_with_a_root_pair_near_a_steep_slope(self):
        # i' reaches about 1.9*2*pi here; a bracket grid sized for 2*pi lost
        # the pair near 0.6, which the split at the zeros of g' keeps
        model = FreeEnergyModel((1.8e-22, -3.2e-22), PHI0)
        relation, i_j = reduced_cpr(model)
        roots = find_fixed_points(0.183, ReducedParams(beta=2.8), cpr=relation)
        dense = _dense_roots(model, i_j, 0.183, 2.8)
        assert len(roots) == len(dense) == 5
        for r, d in zip(roots, dense):
            assert abs(residual_formula(r.phi, 0.183, 2.8, cpr=relation.i)) <= 1e-12
            assert r.phi == pytest.approx(d, abs=1e-9)

    def test_bare_callable_is_rejected(self):
        # a relation is one value: its current, slope and critical points
        # (where the window is split and the class read) arrive together
        p = ReducedParams(beta=5.0)
        relation, _ = reduced_cpr(FreeEnergyModel((2.4e-21,), PHI0))
        for cpr in (lambda phi: math.sin(TWO_PI * phi), tuple(relation)):
            with pytest.raises(TypeError, match="Relation"):
                find_fixed_points(0.0, p, cpr=cpr)

    def test_reduced_relation_stays_within_unit_amplitude(self):
        # I_J is |I| at the zeros of I'; the maximum over a 12,288-point grid
        # fell 1.8e-7 short, so |i(0.596561)| was 1 + 1.8e-7, past the 1e-9
        # margin the solver's root window allows
        i_fun = reduced_cpr(FreeEnergyModel((1e-21, -1e-21, 1e-21), PHI0))[0].i
        assert abs(i_fun(0.596561)) <= 1.0 + 1e-12
        assert max(abs(i_fun(float(x))) for x in np.linspace(0.0, 1.0, 100001)) <= 1.0 + 1e-12


@given(coeffs=st.integers(min_value=2, max_value=4).flatmap(
           lambda k: st.lists(st.floats(min_value=-5e-22, max_value=5e-22),
                              min_size=k, max_size=k)),
       beta=st.floats(min_value=0.1, max_value=30.0),
       phi_ext=st.floats(min_value=-2.0, max_value=2.0))
@example(coeffs=[1.8e-22, -3.2e-22], beta=2.8, phi_ext=0.183)
def test_relation_root_count_matches_a_dense_scan(coeffs, beta, phi_ext):
    assume(any(coeffs))
    model = FreeEnergyModel(tuple(coeffs), PHI0)
    relation, i_j = reduced_cpr(model)
    roots = find_fixed_points(phi_ext, ReducedParams(beta=beta), cpr=relation)
    assert len(roots) == len(_dense_roots(model, i_j, phi_ext, beta))


@given(exponent=st.floats(min_value=-40.0, max_value=-10.0), negative=st.booleans(),
       phis=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=50))
@example(exponent=-21.0, negative=True, phis=[0.0, 0.25, 0.5, -0.75])
def test_single_harmonic_relation_is_the_signed_sinusoid(exponent, negative, phis):
    # for K = 1, i = sign(c_1)*sin(2*pi*phi) and di = sign(c_1)*2*pi*cos(2*pi*phi)
    # bit for bit (as floats: at phi = 0 the series sums 0 + -0.0 to 0.0)
    sign = -1.0 if negative else 1.0
    relation, i_j = reduced_cpr(FreeEnergyModel((sign * 10.0 ** exponent,), PHI0))
    assert i_j == abs(fundamental_harmonic(FreeEnergyModel((10.0 ** exponent,), PHI0)))
    for phi in phis:
        assert relation.i(phi) == sign * math.sin(TWO_PI * phi)
        assert relation.di(phi) == sign * (TWO_PI * math.cos(TWO_PI * phi))


@given(coeffs=st.integers(min_value=1, max_value=4).flatmap(
           lambda k: st.lists(st.floats(min_value=-5e-22, max_value=5e-22, allow_subnormal=False),
                              min_size=k, max_size=k)),
       phis=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=20))
@example(coeffs=[1.8e-22, -3.2e-22], phis=[0.0, 0.183, -0.6, 3.9])
def test_current_is_the_scaled_relation_and_the_oracle_series(coeffs, phis):
    # I_J*i(Phi/Phi0) rescales each amplitude by I_J and back (a few ulps of
    # the amplitude sum); the numpy oracle rounds 2*pi*Phi/Phi0 in another
    # order (an ulp of the angle, times k, per term).  Subnormal coefficients
    # hold fewer than 53 bits, so there the routes differ by more than that.
    assume(any(coeffs))
    model = FreeEnergyModel(tuple(coeffs), PHI0)
    relation, i_j = reduced_cpr(model)
    scale = sum(TWO_PI * k * abs(c) / PHI0 for k, c in enumerate(coeffs, start=1))
    for phi in phis:
        Phi = phi * PHI0
        value = current(model, Phi)
        assert abs(value - i_j * relation.i(Phi / PHI0)) <= 1e-14 * scale
        assert abs(value - float(series_current(coeffs, PHI0, Phi))) <= 1e-13 * scale
        # oddness and evenness hold exactly, so validate_symmetries does not check them
        assert current(model, -Phi) == -value
        assert free_energy(model, -Phi) == free_energy(model, Phi)
