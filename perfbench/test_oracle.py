"""The benchmark's oracle against closed forms of the screening ring.

Run with `python -m pytest perfbench/test_oracle.py` from the repository
root; it needs numpy and nothing from ringflux.
"""

import math

import pytest

from oracle import (TWO_PI, residual, scan_folds, scan_roots, slope,
                    stable_roots, sweep_remnants, trapping_threshold)


def test_five_roots_at_beta_5():
    roots = scan_roots(0.0, 5.0)
    expected = [-0.7808611255, -0.6532705387, 0.0, 0.6532705387, 0.7808611255]
    assert roots == pytest.approx(expected, abs=1e-9)
    assert max(abs(float(residual(r, 0.0, 5.0))) for r in roots) <= 1e-12
    # stable, unstable, stable, unstable, stable
    assert [bool(slope(r, 5.0) > 0.0) for r in roots] == [True, False, True, False, True]


def test_root_scan_is_periodic_in_the_drive():
    base = scan_roots(0.37, 11.2)
    shifted = scan_roots(1.37, 11.2)
    assert len(base) == len(shifted) == 7
    assert [r + 1.0 for r in base] == pytest.approx(shifted, abs=1e-9)


@pytest.mark.parametrize("beta", [1.05, 2.0, 5.0, 20.0, 100.0])
def test_folds_at_half_plus_minus_phi_a(beta):
    phi_a = math.acos(1.0 / beta) / TWO_PI
    assert scan_folds(beta) == pytest.approx([0.5 - phi_a, 0.5 + phi_a], abs=1e-12)


def test_no_folds_below_beta_1():
    assert scan_folds(0.9) == []


def test_trapping_threshold():
    beta_t = trapping_threshold()
    assert beta_t == pytest.approx(4.6033, abs=5e-5)
    # the one-quantum states appear at zero drive exactly there
    assert len(stable_roots(0.0, beta_t - 1e-3)) == 1
    assert len(stable_roots(0.0, beta_t + 1e-3)) == 3


def test_sweep_remnants_trap_one_quantum_at_beta_5():
    down, up = sweep_remnants(5.0, 0.0, 3.0)
    assert down == pytest.approx(0.7808611255, abs=1e-9)
    assert up == pytest.approx(-0.7808611255, abs=1e-9)


def test_sweep_remnants_vanish_below_the_threshold():
    assert sweep_remnants(3.0, 0.0, 3.0) == pytest.approx((0.0, 0.0), abs=1e-12)
