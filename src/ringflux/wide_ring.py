"""Inner/outer perimeter currents of a wide ring with trapped flux.

In a ring wider than the penetration depth, the junction current splits
into a sheet current on the inner perimeter and one on the outer
perimeter.  With n flux quanta trapped, the total vanishes at the critical
applied field (the phase sits at a zero crossing of the sine), the two
sheets exactly cancelling; as the applied field is removed, the inner
current must hold the quantized interior flux while the outer screening
current dies with the field:

    I_inner(n) = n*Phi0/L   for every H,
    I_outer(n) = -I_inner   at H = H_c,    0 at H = 0.

Only the endpoints are physically pinned; in between, the outer current is
interpolated linearly in H/H_c (the screening current tracks the ramped
field) - a modeling convention, documented, not derived.  The field left
inside the inner perimeter at zero applied field is n*Phi0/area.
"""

from __future__ import annotations

from .ring_model import RingParams


def currents_at(n: int, H_over_Hc: float, params: RingParams) -> tuple[float, float]:
    """(I_inner, I_outer) in amperes for n trapped quanta at H/H_c in [0, 1]."""
    if not (0.0 <= H_over_Hc <= 1.0):
        raise ValueError(f"H_over_Hc must lie in [0, 1], got {H_over_Hc}")
    inner = n * params.Phi0 / params.L
    return inner, -inner * H_over_Hc


def remnant_field(n: int, params: RingParams) -> float:
    """Trapped field n*Phi0/area_A [T] left inside the inner perimeter at H = 0."""
    return n * params.Phi0 / params.area_A

