"""Parameter reduction, the sinusoidal relation, and fluxoid arithmetic."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ringflux.bloch_cpr import FreeEnergyModel, reduced_cpr
from ringflux.ring_model import (
    COOPER_PAIR_CHARGE,
    COOPER_PAIR_MASS,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    PLANCK_H,
    TWO_PI,
    FluxoidState,
    ReducedParams,
    RingParams,
    fluxoid,
    quantization_index,
    reduce,
    unreduce,
)


class TestReduce:
    def test_unit_ratio_gives_two_pi(self):
        p = reduce(RingParams(L=1.0, I_J=1.0, Phi0=1.0))
        assert p.beta == pytest.approx(TWO_PI, rel=1e-15)
        assert p.lam == pytest.approx(1.0, rel=1e-15)

    def test_rounded_flux_quantum_input(self):
        # L*I_J/Phi0 = 1e-15/2.07e-15 with the rounded quantum as input
        p = reduce(RingParams(L=1e-10, I_J=1e-5, Phi0=2.07e-15))
        assert p.lam == pytest.approx(0.48309178743961356, rel=1e-15)
        assert p.beta == pytest.approx(3.0353552208597034, rel=1e-15)

    def test_zero_bias(self):
        assert reduce(RingParams(L=1e-10, I_J=1e-5)).phi_fe == 0.0

    def test_signed_bias(self):
        p = reduce(RingParams(L=1e-10, I_J=1e-5, Phi0=2e-15, Phi_Fe=-6e-16))
        assert p.phi_fe == pytest.approx(-0.3, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(L=0.0, I_J=1e-5),
        dict(L=-1e-10, I_J=1e-5),
        dict(L=1e-10, I_J=0.0),
        dict(L=1e-10, I_J=1e-5, Phi0=0.0),
        dict(L=1e-10, I_J=1e-5, Phi0=-2e-15),
        dict(L=1e-10, I_J=1e-5, area_A=0.0),
        dict(L=math.nan, I_J=1e-5),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            RingParams(**bad)

    def test_beta_lambda_locked(self):
        p = ReducedParams(beta=5.0)
        assert p.beta == TWO_PI * p.lam

    def test_roundtrip_recovers_si_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = RingParams(
                L=float(10.0 ** rng.uniform(-12, -8)),
                I_J=float(10.0 ** rng.uniform(-7, -3)),
                Phi0=float(FLUX_QUANTUM * rng.uniform(0.5, 2.0)),
                Phi_Fe=float(rng.uniform(-5, 5) * FLUX_QUANTUM),
                area_A=float(10.0 ** rng.uniform(-8, -2)),
            )
            back = unreduce(reduce(params), params.I_J, params.Phi0, params.area_A)
            assert back.L == pytest.approx(params.L, rel=1e-15)
            assert back.Phi_Fe == pytest.approx(params.Phi_Fe, rel=1e-15, abs=0.0)
            assert back.I_J == params.I_J
            assert back.Phi0 == params.Phi0


# the sinusoidal relation i = sin(2*pi*phi) as a function: the reduced
# relation of a one-harmonic free energy with c_1 > 0
josephson_current = np.vectorize(reduced_cpr(FreeEnergyModel((1e-21,)))[0])


class TestJosephsonCurrent:
    def test_zero_flux(self):
        assert josephson_current(0.0) == 0.0

    def test_quarter_flux_is_critical(self):
        assert josephson_current(0.25) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 7])
    def test_integer_flux_zero_crossings(self, n):
        assert josephson_current(float(n)) == pytest.approx(0.0, abs=1e-14)

    def test_periodic_and_odd_on_dense_grid(self):
        phi = np.linspace(-3.0, 3.0, 20001)
        assert_allclose(josephson_current(phi + 1.0), josephson_current(phi), atol=1e-12)
        assert_allclose(josephson_current(-phi), -josephson_current(phi), atol=1e-12)

    def test_bounded_by_one(self):
        phi = np.linspace(-10.0, 10.0, 100003)
        assert np.max(np.abs(josephson_current(phi))) <= 1.0 + 1e-15


class TestFluxoid:
    def test_thick_ring_limit_is_bare_flux(self):
        assert fluxoid(FluxoidState(Phi=3 * FLUX_QUANTUM, kappa=0.0)) == 3 * FLUX_QUANTUM

    def test_zero_state(self):
        assert fluxoid(FluxoidState(Phi=0.0, kappa=0.0)) == 0.0

    def test_circulation_contribution(self):
        # kappa = q*Phi0/m makes the circulation term worth exactly one quantum:
        # independent evaluation of Phi + (m/q)*kappa
        state = FluxoidState(Phi=FLUX_QUANTUM,
                             kappa=COOPER_PAIR_CHARGE * FLUX_QUANTUM / COOPER_PAIR_MASS)
        expected = state.Phi + (state.m / state.q) * state.kappa
        assert expected == pytest.approx(2 * FLUX_QUANTUM, rel=1e-15)
        assert fluxoid(state) == expected

    def test_custom_carriers(self):
        state = FluxoidState(Phi=1e-15, kappa=2e-4, m=9.1e-31, q=-1.6e-19)
        assert fluxoid(state) == pytest.approx(1e-15 + (9.1e-31 / -1.6e-19) * 2e-4, rel=1e-15)

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError):
            FluxoidState(Phi=0.0, kappa=0.0, q=0.0)


class TestQuantizationIndex:
    def test_exact_multiple(self):
        assert quantization_index(5 * FLUX_QUANTUM, FLUX_QUANTUM) == (5, 0.0)

    def test_zero(self):
        assert quantization_index(0.0, FLUX_QUANTUM) == (0, 0.0)

    def test_rounding_definition(self):
        n, dev = quantization_index(5.4 * FLUX_QUANTUM, FLUX_QUANTUM)
        assert n == 5
        assert dev == pytest.approx(0.4, abs=1e-12)

    def test_deviation_below_half_away_from_midpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = float(rng.uniform(-50, 50))
            if abs(x - math.floor(x) - 0.5) < 1e-9:
                continue
            n, dev = quantization_index(x * FLUX_QUANTUM, FLUX_QUANTUM)
            assert dev < 0.5
            assert abs(x - n) <= 0.5 + 1e-12

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_integers_have_zero_deviation(self, k):
        n, dev = quantization_index(float(k), 1.0)
        assert (n, dev) == (k, 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            quantization_index(1.0, 0.0)


def test_flux_quantum_matches_codata_catalog():
    import scipy.constants as sc
    assert FLUX_QUANTUM == pytest.approx(
        sc.physical_constants["mag. flux quantum"][0], rel=1e-12)


def test_constant_literals_match_scipy():
    import scipy.constants as sc
    assert PLANCK_H == sc.h
    assert ELEMENTARY_CHARGE == sc.e
    # m_e is measured: CODATA 2022 here, and a scipy shipping CODATA 2018 differs
    assert ELECTRON_MASS == pytest.approx(sc.m_e, rel=1e-8)
