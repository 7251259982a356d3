"""Symmetries of the root set, checked on drawn parameters.

The flux balance phi = phi_ext + phi_fe - lam*sin(2*pi*phi) is periodic in
the drive, odd under (phi_ext, phi_fe, phi) -> (-phi_ext, -phi_fe, -phi),
and sees the bias only through c = phi_ext + phi_fe.
"""

import math

import pytest
from hypothesis import given, strategies as st

from ringflux.fixed_points import find_fixed_points
from ringflux.ring_model import ReducedParams

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
