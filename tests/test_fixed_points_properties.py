"""Symmetries of the root set, checked on drawn parameters.

The flux balance phi = phi_ext + phi_fe - lam*sin(2*pi*phi) is periodic in
the drive, odd under (phi_ext, phi_fe, phi) -> (-phi_ext, -phi_fe, -phi),
and sees the bias only through c = phi_ext + phi_fe.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ringflux.fixed_points import find_fixed_points
from ringflux.ring_model import ReducedParams

betas = st.floats(min_value=0.1, max_value=40.0)
biases = st.floats(min_value=-0.5, max_value=0.5)
drives = st.floats(min_value=-5.0, max_value=5.0)
prop_settings = settings(max_examples=25, deadline=None, derandomize=True)


@prop_settings
@given(beta=betas, phi_fe=biases, phi_ext=drives, n=st.integers(min_value=-20, max_value=20))
def test_integer_drive_shift_shifts_every_root(beta, phi_fe, phi_ext, n):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    roots = find_fixed_points(phi_ext, p)
    shifted = find_fixed_points(phi_ext + n, p)
    assert [r.stability for r in shifted] == [r.stability for r in roots]
    for s, r in zip(shifted, roots):
        assert s.phi == pytest.approx(r.phi + n, rel=0.0, abs=1e-12)


@prop_settings
@given(beta=betas, phi_fe=biases, phi_ext=drives)
def test_mirrored_drive_mirrors_the_roots(beta, phi_fe, phi_ext):
    roots = find_fixed_points(phi_ext, ReducedParams(beta=beta, phi_fe=phi_fe))
    mirrored = find_fixed_points(-phi_ext, ReducedParams(beta=beta, phi_fe=-phi_fe))
    assert [r.stability for r in reversed(mirrored)] == [r.stability for r in roots]
    for m, r in zip(reversed(mirrored), roots):
        assert m.phi == pytest.approx(-r.phi, rel=0.0, abs=1e-12)


@prop_settings
@given(beta=betas, phi_fe=biases, phi_ext=drives)
def test_bias_is_a_drive_translation(beta, phi_fe, phi_ext):
    biased = find_fixed_points(phi_ext, ReducedParams(beta=beta, phi_fe=phi_fe))
    shifted = find_fixed_points(phi_ext + phi_fe, ReducedParams(beta=beta))
    assert biased == shifted
