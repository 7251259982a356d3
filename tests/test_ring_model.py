"""Parameter reduction, the sinusoidal relation, and the physical constants."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ringflux.bloch_cpr import FreeEnergyModel, reduced_cpr
from ringflux.ring_model import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    PLANCK_H,
    TWO_PI,
    ReducedParams,
    RingParams,
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

    def test_lambda_is_stored_but_not_a_parameter(self):
        # lam is divided out once per instance; the constructor, ==, hash
        # and repr see only beta and phi_fe
        p = ReducedParams(5.0, 0.3)
        assert p.lam == 5.0 / TWO_PI
        assert repr(p) == "ReducedParams(beta=5.0, phi_fe=0.3)"
        assert p == ReducedParams(beta=5.0, phi_fe=0.3) and hash(p) == hash((5.0, 0.3))
        with pytest.raises(TypeError):
            ReducedParams(beta=5.0, lam=1.0)

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
josephson_current = np.vectorize(reduced_cpr(FreeEnergyModel((1e-21,)))[0].i)


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
