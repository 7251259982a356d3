"""Roots and stability of the flux-balance equation at fixed applied flux.

The self-consistent flux states of the ring solve

    phi = phi_ext + phi_fe - lambda * i(phi),      i(phi) = sin(2*pi*phi),

the flux balance of a screening (Lenz) ring: the circulating current opposes
the change of the enclosed flux.  They are the roots of the residual

    g(phi) = phi - c + lambda * sin(2*pi*phi),     c = phi_ext + phi_fe.

The bias phi_fe enters only through the sum c.  Geometrically the roots are
the intersections of the straight line i = (c - phi)/lambda with the
current-phase sinusoid.  All roots lie in |phi - c| <= lambda.  A root is
stable when g'(phi) > 0 (the line crosses the sinusoid from above);
g'(phi) < 0 is the runaway case.  For beta <= 1, g is nondecreasing and the
root is unique; for beta > 1 stable and unstable roots alternate and
coalesce pairwise at fold (tangency) points where g = g' = 0.

The sinusoid is integer-periodic: g(j + u) at drive c equals g(u) at the
cell drive d = c - j.  Every solve therefore works in a unit cell, on u,
and reports the root j + u with the current i(u), so a far drive keeps the
fraction of its roots that sin(2*pi*(j + u)) would lose.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .ring_model import TWO_PI, ReducedParams, _require_finite

#: Margin added beyond the analytic root window |phi - c| <= lambda, guarding
#: boundary roots against rounding.
WINDOW_MARGIN = 1e-9

#: Default |g| tolerance for accepted roots, relative to max(1, |phi|).
DEFAULT_ROOT_TOL = 1e-12

#: |g'| band classified as Marginal (fold tangency vs roundoff).
MARGINAL_TOL = 1e-9

#: Most segments, hence most roots, that find_fixed_points takes in one root
#: window: the sinusoid's window holds about 4*lambda = 2*beta/pi, so beta up
#: to about 7.9e6.  A root costs about 180 bytes; the cap equals the sample
#: count MAX_SUBSTEPS allows a sweep.
MAX_ROOTS = 5_000_000

#: Largest total sub-step count a sweep schedule may ask for.  Every sub-step
#: is kept as a sample (192 bytes each, by tracemalloc over a 40,004-sample
#: loop), so this bounds a sweep's memory near 0.96 GB.  It sits here rather
#: than in `sweep` (which re-exports it) so that `wide-ring`, which caps its
#: rows with it, starts without loading the sweep.
MAX_SUBSTEPS = 5_000_000


class NumericsError(RuntimeError):
    """A solver failed to meet its numerical contract."""


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class FixedPoint:
    """One solution (phi, i) of the flux balance with its stability class."""

    phi: float
    i: float
    stability: Stability


class Relation(NamedTuple):
    """A reduced current-phase relation |i| <= 1, the `cpr` that replaces the
    sinusoid in every solver: i, its slope di = i', and critical_points(lam),
    the zeros of g' = 1 + lam*i' in [0, 1), ascending (bloch_cpr.reduced_cpr)."""

    i: Callable[[float], float]
    di: Callable[[float], float]
    critical_points: Callable[[float], list[float]]


def residual(phi: float, phi_ext: float, p: ReducedParams, cpr: Relation | None = None) -> float:
    """g(phi) = phi - (phi_ext + phi_fe) + lambda*i(phi); roots are flux states.

    The drive enters only through the sum c = phi_ext + phi_fe, so a bias
    and an equal shift of the applied flux give bit-identical residuals.
    """
    i = math.sin(TWO_PI * phi) if cpr is None else cpr.i(phi)
    return phi - (phi_ext + p.phi_fe) + p.lam * i


def residual_derivative(phi: float, p: ReducedParams, cpr: Relation | None = None) -> float:
    """g'(phi) = 1 + lambda*i'(phi); its sign classifies stability."""
    di = TWO_PI * math.cos(TWO_PI * phi) if cpr is None else cpr.di(phi)
    return 1.0 + p.lam * di


def classify_stability(phi_star: float, p: ReducedParams,
                       cpr: Relation | None = None) -> Stability:
    """Stability of a root from the sign of g', with the Marginal dead band
    |g'| <= MARGINAL_TOL."""
    s = residual_derivative(phi_star, p, cpr)
    if s > MARGINAL_TOL:
        return Stability.STABLE
    if s < -MARGINAL_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL


class Branches(NamedTuple):
    """The stable branches of the sinusoidal relation at one beta, in the unit cell.

    g'(u) = 1 + beta*cos(2*pi*u) vanishes at u = 1/2 +/- phi_a, where
    cos(2*pi*phi_a) = 1/beta.  Between consecutive critical points g is
    strictly monotone, so each such segment holds at most one root.  The
    increasing segment [-e, e], e = 1/2 - phi_a, carries the stable root of the
    cell; shifted by the integer fluxoid k it is stable branch k.  Its ends are
    folds at the cell drives d = -/+half, half = 1/2 + w, so branch k lives
    while |c - k| <= half, c = phi_ext + phi_fe: every fold is decided on the
    exact cell drive c - k, never on a level k +/- half rounded at ulp(k).
    Without folds (beta <= 1) e = half = inf, and the one root is solved in
    round(c)'s cell (_branch_point).  Roots lie in |u - d| <= lam = beta/(2*pi).
    """

    phi_a: float
    w: float
    e: float
    half: float
    lam: float


@functools.lru_cache(maxsize=64)  # every branch solve and jump asks for it
def _branches(beta: float) -> Branches:
    """The Branches of beta.  From t = tan(2*pi*phi_a) = sqrt(beta**2 - 1),
    phi_a = atan(t)/(2*pi) and w = (t - atan t)/(2*pi), summed as t**3/3 -
    t**5/5 + ... for t < 0.7, where t - atan t cancels.  w is kept apart from
    1/2, so it keeps its digits near beta = 1."""
    if beta <= 1.0:
        return Branches(-math.inf, math.inf, math.inf, math.inf, beta / TWO_PI)
    t2 = (beta - 1.0) * (beta + 1.0)
    t = math.sqrt(t2) if t2 < math.inf else beta  # sqrt rounds to beta beyond ~1.34e154
    atan_t = math.atan(t)
    w = (t - atan_t if t >= 0.7 else
         math.fsum((-t * t) ** n * t ** 3 / (2 * n + 3) for n in range(60)))
    phi_a, w = atan_t / TWO_PI, w / TWO_PI
    return Branches(phi_a, w, 0.5 - phi_a, 0.5 + w, beta / TWO_PI)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _cell_newton(d: float, lam: float, a: float, b: float, fa: float, fb: float, x0: float,
                 cpr: Relation | None = None) -> tuple[float, float]:
    """(u, g(u)) at the root of g(u) = u - d + lam*i(u) in the sign bracket
    a < b, fa*fb < 0: the cell residual at drive d, with i and i' the
    sinusoid's or `cpr`'s, both evaluated in the loop.

    Newton from x0; each evaluated point becomes a bracket end.  A step out
    of the bracket bisects it, and a step that rounds to x moves one float
    toward the other end.  Unless g rounds to 0 first, the solve ends on two
    adjacent floats and returns the one with the smaller |g| (ties: a).
    """
    x = a if x0 < a else b if x0 > b else x0
    while True:
        fx = x - d + lam * (math.sin(TWO_PI * x) if cpr is None else cpr.i(x))
        if fx == 0.0:
            return x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if math.nextafter(a, b) == b:
            return (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        s = 1.0 + lam * (TWO_PI * math.cos(TWO_PI * x) if cpr is None else cpr.di(x))
        xn = x - fx / s if s != 0.0 else math.nan  # a flat slope bisects
        if xn == x:
            xn = math.nextafter(x, b if x == a else a)
        elif not a < xn < b:
            xn = 0.5 * (a + b)
        x = xn


def _segment_root(d: float, lam: float, a: float, b: float, fa: float, fb: float, x0: float | None,
                  beta: float, rising: bool = True, cpr: Relation | None = None) -> float | None:
    """u, the root of the cell residual g at drive d on its monotone segment
    [a, b], fa = g(a) and fb = g(b), or None: the one rule of every solve.
    A rising segment (g' > 0) owns the tangencies at its ends: an end with g
    within DEFAULT_ROOT_TOL of 0 on the side away from the segment, 0 <= fa
    or fb <= 0, is the root, which rounding may leave unbracketed (absolute:
    the root of a drive inside the band lies about sqrt(band) from the end;
    a window end has |g| of WINDOW_MARGIN or more).  Else _cell_newton
    solves a strict sign change from x0 (None: the midpoint), and the root
    is accepted or raises."""
    if rising and 0.0 <= fa <= DEFAULT_ROOT_TOL:
        return a
    if rising and -DEFAULT_ROOT_TOL <= fb <= 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        return None
    u, r = _cell_newton(d, lam, a, b, fa, fb, 0.5 * (a + b) if x0 is None else x0, cpr)
    # |r| <= DEFAULT_ROOT_TOL, else the rounding of g at |g'| <= 1 + beta (large
    # beta): |u| < 2 in its cell, but d and lam*sin round at about lam*ulp(1)
    if abs(r) > DEFAULT_ROOT_TOL and abs(r) > 2.0 * (1.0 + beta) * math.ulp(1.0):
        raise NumericsError(f"root at u={u!r} of its cell has residual {r:.3e} > "
                            f"max({DEFAULT_ROOT_TOL:.0e}, 2*(1 + beta)*ulp(1))")
    return u


def _branch_root(d: float, p: ReducedParams, x0: float | None = None) -> float | None:
    """u, the root k + u of stable branch k on its segment [-e, e] (Branches) at
    its cell drive d = c - k, clipped to the cell's root window, or None, as
    _segment_root decides it from the cell coordinate x0 (by default the
    midpoint); without folds the segment is the whole window, from its midpoint."""
    _, _, e, _, lam = _branches(p.beta)
    lo, hi = d - lam - WINDOW_MARGIN, d + lam + WINDOW_MARGIN
    a, b = (-e if -e > lo else lo), (e if e < hi else hi)
    if not a < b:
        return None
    fa, fb = a - d + lam * math.sin(TWO_PI * a), b - d + lam * math.sin(TWO_PI * b)
    return _segment_root(d, lam, a, b, fa, fb, x0 if e < math.inf else None, p.beta)


def _branch_point(c: float, k: int, p: ReducedParams, x0: float | None) -> tuple[float, float]:
    """(j + u, u): branch k's root at the total flux c, _branch_root's cell
    root u in the branch's own cell j = k from the cell coordinate x0; without
    folds the one root, in round(c)'s cell j from the window midpoint, which a
    sweep reports as branch 0.  NumericsError when no root is bracketed."""
    j = k if p.beta > 1.0 else round(c)
    if (u := _branch_root(c - j, p, x0)) is None:
        raise NumericsError(f"branch {j} does not bracket c={c!r}")
    return j + u, u


def find_fixed_points(phi_ext: float, p: ReducedParams,
                      cpr: Relation | None = None) -> list[FixedPoint]:
    """All flux states at a given applied flux, sorted ascending in phi.

    The root window is split period by period.  Period j is solved in its
    unit cell at the drive d = c - j (exact by Sterbenz wherever j is within
    a factor 2 of c), on its monotone segments: for the sinusoid the stable
    [-e, e] and the unstable [e, 1 - e], e = 1/2 - phi_a, or those between
    consecutive critical_points(lam) of `cpr`; for beta <= 1 the one window
    segment in round(c)'s cell.  _segment_root decides each, clipped to the
    cell's root window: a tangency at an end of a rising segment, else a
    sign change solved from the midpoint (about 7.9 evaluations of g per
    root with the segment ends), so a stable segment's root is
    _branch_root's bit for bit.  A cell root u is reported as j + u, with
    i(u) and the class of g'(u), so the current keeps the fraction at any
    drive.  It is accepted at |g| <= DEFAULT_ROOT_TOL, or at
    |g| <= 2*(1 + beta)*ulp(1), the rounding of g in the cell where its
    slope reaches 1 + beta (beta >~ 1e3).

    Parameters
    ----------
    phi_ext : float
        Applied flux in units of Phi0.
    p : ReducedParams
        Ring parameters.
    cpr : Relation, optional
        A reduced current-phase relation replacing the sinusoid, as
        `bloch_cpr.reduced_cpr` gives it.  Anything else raises TypeError.

    Returns
    -------
    list[FixedPoint]
        Every root in the window [c - lambda - eps, c + lambda + eps] with
        c = phi_ext + phi_fe.  Never empty: g(lo) < 0 < g(hi) by |i| <= 1, and
        a sign change that rounding moves onto a segment end is a tangency.
        Two roots j + u that round to one float (closer than ulp(c): from |c|
        of about 1e13 near a fold, every root from 1e16 at beta 5) raise
        NumericsError ("no root resolved"), unless one is a tangency that the
        other's solve met.  A non-finite phi_ext or c, or a window of more
        than MAX_ROOTS segments (beta >~ 7.9e6), raises ValueError first.
    """
    _require_finite("phi_ext", phi_ext)
    if cpr is not None and not isinstance(cpr, Relation):
        raise TypeError(f"cpr must be a Relation, as reduced_cpr gives, not {type(cpr).__name__}")
    c = phi_ext + p.phi_fe
    _require_finite("phi_ext + phi_fe", c)
    lam, n = p.lam, round(c)
    if cpr is not None:  # t ascending in [0, 1)
        ts = cpr.critical_points(lam)
    else:  # -e is phi_a - 1/2, the same float
        ts = [-e, e] if (e := _branches(p.beta).e) < math.inf else []
    if ts:
        segments = len(ts) * 2.0 * (lam + WINDOW_MARGIN)
        if segments > MAX_ROOTS:
            raise ValueError(f"beta={p.beta!r} gives about {segments:.3g} roots, "
                             f"more than MAX_ROOTS={MAX_ROOTS}")
        cuts, dn = [*ts, ts[0] + 1.0], c - n
        rise0 = cpr is None or residual_derivative(0.5 * (ts[0] + cuts[1]), p, cpr) > 0.0
        ends = [(t, (s % 2 == 0) == rise0) for s, t in enumerate(cuts[1:])]  # (b, rising)
        periods = range(n + math.floor(dn - lam - ts[0]) - 1, n + math.ceil(dn + lam - ts[0]) + 1)
    else:  # the one window segment in round(c)'s cell, rising
        cuts, periods, ends = [-math.inf], range(n, n + 1), [(math.inf, True)]
    roots: list[FixedPoint] = []
    for j in periods:
        d = c - j
        lo, hi = d - lam - WINDOW_MARGIN, d + lam + WINDOW_MARGIN
        a, fa, ua = (cuts[0] if cuts[0] > lo else lo), None, None
        for t, rising in ends:  # period j's segments [a, b = t] in its window, ascending
            if t <= a:
                continue
            b = t if t < hi else hi
            if not a < b:
                break
            if fa is None:
                fa = a - d + lam * (math.sin(TWO_PI * a) if cpr is None else cpr.i(a))
            fb = b - d + lam * (math.sin(TWO_PI * b) if cpr is None else cpr.i(b))
            u = _segment_root(d, lam, a, b, fa, fb, None, p.beta, rising, cpr)
            if u is not None:
                phi = j + u
                if not roots or phi > roots[-1].phi:
                    roots.append(FixedPoint(phi, math.sin(TWO_PI * u) if cpr is None else cpr.i(u),
                                            classify_stability(u, p, cpr)))
                elif a not in (u, ua):  # else one tangency at a, met from both sides
                    raise NumericsError(f"no root resolved at phi_ext={phi_ext!r}: two roots "
                                        f"round to phi={phi!r}, below the resolution of c={c!r}")
            if b == hi:
                break
            a, fa, ua = b, fb, u
    return roots
