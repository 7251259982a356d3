"""Inner/outer current decomposition and the remnant field."""

import numpy as np
import pytest

from ringflux.ring_model import RingParams
from ringflux.wide_ring import currents_at, remnant_field

PARAMS = RingParams(L=1e-10, I_J=1e-5, Phi0=2.07e-15, area_A=1e-6)


class TestCurrentsAt:
    def test_no_trapped_flux_means_no_currents(self):
        for h in np.linspace(0.0, 1.0, 11):
            assert currents_at(0, float(h), PARAMS) == (0.0, 0.0)

    def test_zero_field_limit(self):
        inner, outer = currents_at(3, 0.0, PARAMS)
        assert inner == pytest.approx(3 * PARAMS.Phi0 / PARAMS.L, rel=1e-15)
        assert outer == 0.0

    def test_criticality_cancellation_exact(self):
        inner, outer = currents_at(3, 1.0, PARAMS)
        assert inner == pytest.approx(3 * PARAMS.Phi0 / PARAMS.L, rel=1e-15)
        assert inner + outer == 0.0

    def test_inner_current_constant_over_field_grid(self):
        grid = np.linspace(0.0, 1.0, 11)
        inners = [currents_at(2, float(h), PARAMS)[0] for h in grid]
        assert len(set(inners)) == 1

    def test_outer_current_linear_in_field(self):
        inner0, _ = currents_at(2, 0.0, PARAMS)
        for h in np.linspace(0.0, 1.0, 11):
            _, outer = currents_at(2, float(h), PARAMS)
            assert outer == pytest.approx(-inner0 * h, rel=1e-15, abs=1e-30)

    def test_sign_carried_by_n(self):
        inner, outer = currents_at(-2, 0.5, PARAMS)
        assert inner < 0.0 < outer

    @pytest.mark.parametrize("h", [-0.01, 1.01, 5.0])
    def test_field_fraction_out_of_range(self, h):
        with pytest.raises(ValueError):
            currents_at(1, h, PARAMS)


class TestRemnantField:
    def test_zero(self):
        assert remnant_field(0, PARAMS) == 0.0

    def test_single_quantum(self):
        assert remnant_field(1, PARAMS) == pytest.approx(2.07e-9, rel=1e-12)

    def test_linear_in_n_and_inverse_in_area(self):
        for n in range(-4, 5):
            assert remnant_field(n, PARAMS) == pytest.approx(
                n * remnant_field(1, PARAMS), rel=1e-15, abs=1e-30)
        doubled = RingParams(L=1e-10, I_J=1e-5, Phi0=2.07e-15, area_A=2e-6)
        assert remnant_field(3, doubled) == pytest.approx(
            remnant_field(3, PARAMS) / 2.0, rel=1e-15)

    def test_sign_carried(self):
        assert remnant_field(-2, PARAMS) == pytest.approx(-2 * 2.07e-9, rel=1e-12)

