"""Step-independence of hysteresis loops, checked on drawn parameters.

The loop area is exact and the folds sit on analytic tangencies, so the
area and the jump events of a loop must not depend on the sweep step, and
the fold-to-fold remnant kernel must land where the sweep lands.

beta - 1 is drawn log-uniformly from [1e-6, 19] so the near-threshold
regime is covered.  Closer to 1 the area (which scales as (beta - 1)**2)
falls below the rounding of the branch integrals, and below about
1 + 1e-10 the sweep itself cannot place the landing root.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from ringflux.fixed_points import branch_index
from ringflux.ring_model import ReducedParams
from ringflux.sweep import hysteresis_remnants, run_hysteresis

STEPS = (0.05, 0.01)

hysteretic_betas = st.floats(min_value=-6.0, max_value=math.log10(19.0)).map(
    lambda u: 1.0 + 10.0 ** u)
loop_params = dict(
    beta=hysteretic_betas,
    phi_fe=st.floats(min_value=-0.5, max_value=0.5),
    amplitude=st.floats(min_value=1.0, max_value=5.0),
)


def _loops(beta, phi_fe, amplitude):
    p = ReducedParams(beta=beta, phi_fe=phi_fe)
    return [run_hysteresis(p, amplitude, step) for step in STEPS]


@given(**loop_params)
def test_loop_area_does_not_depend_on_step(beta, phi_fe, amplitude):
    coarse, fine = _loops(beta, phi_fe, amplitude)
    assert coarse.loop_area == pytest.approx(
        fine.loop_area, rel=0.0, abs=1e-12 * max(1.0, abs(fine.loop_area)))


@given(**loop_params)
@example(beta=1.01, phi_fe=0.0, amplitude=2.0)
@example(beta=1.05, phi_fe=0.0, amplitude=2.0)
def test_loop_area_positive_when_hysteretic(beta, phi_fe, amplitude):
    for loop in _loops(beta, phi_fe, amplitude):
        if loop.cycle.events:
            assert loop.loop_area > 0.0


@given(**loop_params)
def test_jump_events_do_not_depend_on_step(beta, phi_fe, amplitude):
    coarse, fine = _loops(beta, phi_fe, amplitude)

    def jumps(loop):
        return [(e.phi_ext_at_jump, e.phi_before, e.phi_after) for e in loop.cycle.events]

    assert jumps(coarse) == jumps(fine)


@given(**{**loop_params, "beta": st.one_of(hysteretic_betas, st.floats(min_value=0.1, max_value=1.0))})
@example(beta=1.0000024137087573, phi_fe=-0.49976671809864337, amplitude=1.6050597291177118)
def test_kernel_remnants_match_the_sweep(beta, phi_fe, amplitude):
    # the kernel solves from the fluxoid k, the sweep from its previous
    # sample; where g' is small (about 0.02 at the example) the float root is
    # not unique and the two differ at rounding level (1.3e-15 there)
    [kernel] = hysteresis_remnants(ReducedParams(beta=beta, phi_fe=phi_fe), [amplitude])
    for loop in _loops(beta, phi_fe, amplitude):
        for swept, got in zip((loop.remnant_down, loop.remnant_up), kernel):
            assert branch_index(got, beta) == branch_index(swept, beta)
            assert got == pytest.approx(swept, rel=0.0, abs=1e-12)
