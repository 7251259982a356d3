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
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

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
#: to about 7.9e6.  A root costs about 375 bytes; the cap equals the sample
#: count sweep.MAX_SUBSTEPS allows a sweep.
MAX_ROOTS = 5_000_000


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


def residual(phi: float, phi_ext: float, p: ReducedParams,
             cpr: Callable[[float], float] | None = None) -> float:
    """g(phi) = phi - (phi_ext + phi_fe) + lambda*i(phi); roots are flux states.

    The drive enters only through the sum c = phi_ext + phi_fe, so a bias
    and an equal shift of the applied flux give bit-identical residuals.
    `cpr` overrides the sinusoidal current-phase relation with any reduced
    relation |i(phi)| <= 1 (e.g. one derived from a free-energy model).
    """
    i = math.sin(TWO_PI * phi) if cpr is None else cpr(phi)
    return phi - (phi_ext + p.phi_fe) + p.lam * i


def residual_derivative(phi: float, p: ReducedParams,
                        cpr_prime: Callable[[float], float] | None = None) -> float:
    """g'(phi) = 1 + lambda*i'(phi); its sign classifies stability."""
    di = TWO_PI * math.cos(TWO_PI * phi) if cpr_prime is None else cpr_prime(phi)
    return 1.0 + p.lam * di


def classify_stability(phi_star: float, p: ReducedParams,
                       cpr_prime: Callable[[float], float] | None = None) -> Stability:
    """Stability of a root from the sign of g', with the Marginal dead band
    |g'| <= MARGINAL_TOL."""
    s = residual_derivative(phi_star, p, cpr_prime)
    if s > MARGINAL_TOL:
        return Stability.STABLE
    if s < -MARGINAL_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL


# ---------------------------------------------------------------------------
# Branch geometry of the sinusoidal relation.
#
# g'(phi) = 1 + beta*cos(2*pi*phi) vanishes at phi = k + 1/2 +/- phi_a where
# cos(2*pi*phi_a) = 1/beta (beta > 1 only).  Between consecutive critical
# points g is strictly monotone, so each such segment holds at most one root.
# The increasing segments [k - 1/2 + phi_a, k + 1/2 - phi_a], centred on the
# integer fluxoid k, carry the stable roots; segment k exists for
# c = phi_ext + phi_fe in [k + c_lo, k + c_hi].
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)  # a sweep asks for the folds at every sub-step
def _fold_geometry(beta: float) -> tuple[float, float]:
    """(phi_a, w) from t = tan(2*pi*phi_a) = sqrt(beta**2 - 1), beta > 1:
    phi_a = atan(t)/(2*pi) and the window half-width w = (t - atan t)/(2*pi),
    summed as t**3/3 - t**5/5 + ... for t < 0.7, where t - atan t cancels."""
    if beta <= 1.0:
        raise ValueError(f"tangency offset requires beta > 1, got {beta}")
    t2 = (beta - 1.0) * (beta + 1.0)
    t = math.sqrt(t2) if t2 < math.inf else beta  # sqrt rounds to beta beyond ~1.34e154
    atan_t = math.atan(t)
    w = (t - atan_t if t >= 0.7 else
         math.fsum((-t * t) ** n * t ** 3 / (2 * n + 3) for n in range(60)))
    return atan_t / TWO_PI, w / TWO_PI


def tangency_offset(beta: float) -> float:
    """phi_a in (0, 1/4): distance from a half-integer flux to the nearest
    fold tangency, which sits at k + 1/2 +/- phi_a.

    Defined by cos(2*pi*phi_a) = 1/beta; requires beta > 1.
    """
    return _fold_geometry(beta)[0]


def stable_branch_interval(k: int, beta: float) -> tuple[float, float]:
    """Flux interval [k - 1/2 + phi_a, k + 1/2 - phi_a] of stable branch k,
    centred on the integer fluxoid k (beta > 1)."""
    phi_a = tangency_offset(beta)
    return k - 0.5 + phi_a, k + 0.5 - phi_a


def branch_flux_range(k: int, beta: float) -> tuple[float, float]:
    """Total-flux levels c = phi_ext + phi_fe over which stable branch k exists.

    The endpoints are the fold levels c = phi + lambda*sin(2*pi*phi) at the
    segment ends: the branch dies at k - (1/2 + w) on a descending sweep and
    at k + 1/2 + w on an ascending one, w = lambda*sin(2*pi*phi_a) - phi_a.
    Below beta - 1 of about 1e-10, w is under the rounding of k + 1/2.
    """
    half = 0.5 + _fold_geometry(beta)[1]
    return k - half, k + half


def branch_index(phi: float, beta: float) -> int:
    """Index k of the stable branch containing the flux value phi.

    Meaningful for stable roots (which always lie inside a stable segment,
    so k is the fluxoid the state is nearest to); for beta <= 1 there is a
    single global branch 0.
    """
    if beta <= 1.0:
        return 0
    return int(math.floor(phi + 0.5 - tangency_offset(beta)))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def _bracketed_newton(f: Callable[[float], float], df: Callable[[float], float],
                      a: float, b: float, fa: float, fb: float,
                      x0: float) -> tuple[float, float]:
    """(x, f(x)) at the root of f in the sign bracket a < b, fa*fb < 0.

    Newton from x0; each evaluated point becomes a bracket end.  A step out
    of the bracket bisects it, and a step that rounds to x moves one float
    toward the other end.  Unless f rounds to 0 first, the solve ends on two
    adjacent floats and returns the one with the smaller |f| (ties: a).
    """
    x = a if x0 < a else b if x0 > b else x0
    while True:
        fx = f(x)
        if fx == 0.0:
            return x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if math.nextafter(a, b) == b:
            return (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        d = df(x)
        xn = x - fx / d if d != 0.0 else math.nan  # a flat slope bisects
        if xn == x:
            xn = math.nextafter(x, b if x == a else a)
        elif not a < xn < b:
            xn = 0.5 * (a + b)
        x = xn


def _segment_root(f: Callable[[float], float], df: Callable[[float], float],
                  a: float, b: float, fa: float, fb: float) -> tuple[float, float] | None:
    """(x, f(x)) at the root of f on a monotone segment [a, b]: a zero at a, or
    bracketed Newton from the midpoint on a sign change; else None."""
    if fa == 0.0:
        return a, fa
    if fb != 0.0 and (fa < 0.0) != (fb < 0.0):  # a zero at b is the next segment's
        return _bracketed_newton(f, df, a, b, fa, fb, 0.5 * (a + b))
    return None


def _accept(root: float, r: float, beta: float) -> float:
    """root, if its residual r passes the acceptance rule of every solve, else raise."""
    # |r| <= DEFAULT_ROOT_TOL * max(1, |root|), else the rounding of g at |g'|
    # <= 1 + beta (large beta); each bound is computed only where those before fail
    if (abs(r) > DEFAULT_ROOT_TOL and abs(r) > DEFAULT_ROOT_TOL * abs(root)
            and abs(r) > 2.0 * (1.0 + beta) * math.ulp(root)):
        raise NumericsError(
            f"root at phi={root!r} has residual {r:.3e} > max({DEFAULT_ROOT_TOL:.0e} * "
            f"max(1, |phi|), 2*(1 + beta)*ulp(phi))")
    return root


def _fixed_point(root: float, r: float, p: ReducedParams, cpr: Callable[[float], float] | None,
                 cpr_prime: Callable[[float], float] | None) -> FixedPoint:
    """Accept a solved root with residual r and classify it, or raise."""
    i = math.sin(TWO_PI * root) if cpr is None else cpr(root)
    return FixedPoint(_accept(root, r, p.beta), i, classify_stability(root, p, cpr_prime))


def _branch_root(phi_ext: float, k: int, p: ReducedParams, x0: float | None = None) -> float | None:
    """The root on stable segment k (the root window for beta <= 1), or None.

    The segment is clipped to the root window as _scan_boundaries clips it.
    An end with g within DEFAULT_ROOT_TOL of 0 on the branch's side is the
    tangency of a fold level, which rounding may leave unbracketed (absolute:
    the root of a drive inside the band lies about sqrt(band) from the end).
    Else bracketed Newton with residual_derivative's slope runs from x0 (by
    default the midpoint: find_fixed_points' root) and _accept checks it."""
    c, lam = phi_ext + p.phi_fe, p.lam
    a, b = lo, hi = c - lam - WINDOW_MARGIN, c + lam + WINDOW_MARGIN
    if p.beta > 1.0:
        a, b = stable_branch_interval(k, p.beta)
        a, b = (lo if a - lo <= 1e-12 else a), (b if b < hi else hi)

    def f(x: float) -> float:  # residual(x, phi_ext, p), with c and lam hoisted
        return x - c + lam * math.sin(TWO_PI * x)

    if not a < b:
        return None
    fa, fb = f(a), f(b)
    if 0.0 <= fa <= DEFAULT_ROOT_TOL:
        return a
    if -DEFAULT_ROOT_TOL <= fb <= 0.0:
        return b
    if fa > 0.0 or fb < 0.0:
        return None
    x, fx = _bracketed_newton(f, lambda x: 1.0 + lam * (TWO_PI * math.cos(TWO_PI * x)),
                              a, b, fa, fb, 0.5 * (a + b) if x0 is None else x0)
    return _accept(x, fx, p.beta)


def _scan_boundaries(c: float, p: ReducedParams,
                     cpr: Callable[[float], float] | None = None) -> list[float]:
    """Ascending segment boundaries in the root window: its edges and every
    critical point of g, k + 1/2 -/+ phi_a or k + t, t in cpr.critical_points(lam).
    A window of more than MAX_ROOTS segments raises ValueError up front."""
    lo = c - p.lam - WINDOW_MARGIN
    hi = c + p.lam + WINDOW_MARGIN
    if cpr is not None:  # t ascending in [0, 1)
        mid, offsets = 0.0, cpr.critical_points(p.lam)  # type: ignore[attr-defined]
    elif p.beta <= 1.0:
        return [lo, hi]
    else:  # k + 0.5 - phi_a as k + 0.5 + (-phi_a), the same float
        phi_a = tangency_offset(p.beta)
        mid, offsets = 0.5, (-phi_a, phi_a)
    segments = len(offsets) * (hi - lo)
    if segments > MAX_ROOTS:
        raise ValueError(f"beta={p.beta!r} gives about {segments:.3g} roots, "
                         f"more than MAX_ROOTS={MAX_ROOTS}")
    pts = [lo]
    for k in range(math.floor(lo), math.ceil(hi) + 1):
        for t in offsets:
            cp = k + mid + t
            if lo < cp < hi:
                pts.append(cp)
    pts.append(hi)
    # collapse near-degenerate boundaries (phi_a -> 0 or 1/4 limits)
    out = [pts[0]]
    for x in pts[1:]:
        if x - out[-1] > 1e-12:
            out.append(x)
    return out


def find_fixed_points(phi_ext: float, p: ReducedParams,
                      cpr: Callable[[float], float] | None = None,
                      cpr_prime: Callable[[float], float] | None = None) -> list[FixedPoint]:
    """All flux states at a given applied flux, sorted ascending in phi.

    Each sign-changing segment of the partition is solved by bracketed
    Newton from its midpoint (with g' from residual_derivative) down to two
    adjacent floats, about 7.5 calls of `residual` per root.  A root is
    accepted at |g| <= DEFAULT_ROOT_TOL * max(1, |phi|), relative because
    near |phi| ~ 1e4 one ulp of phi alone exceeds an absolute 1e-12, or at
    |g| <= 2*(1 + beta)*ulp(phi), the rounding of g where its slope |g'|
    reaches 1 + beta (beta >~ 1e4).

    Parameters
    ----------
    phi_ext : float
        Applied flux in units of Phi0.
    p : ReducedParams
        Ring parameters.
    cpr, cpr_prime :
        Optional reduced current-phase relation (|i| <= 1) and its
        derivative replacing the sinusoid, as `bloch_cpr.reduced_cpr` gives
        them: together, since stability is classified with the slope, and
        `cpr_prime` also gives the Newton steps.  `cpr.critical_points(lam)`,
        the zeros of g' in one period, split the window as the sinusoid's
        analytic points do; a `cpr` without it raises ValueError.

    Returns
    -------
    list[FixedPoint]
        Every root in the window [c - lambda - eps, c + lambda + eps] with
        c = phi_ext + phi_fe.  Never empty, since g(lo) < 0 < g(hi) by
        |i| <= 1; where the rounding of c leaves no root resolved (|c| >~
        1e16 at beta 5), NumericsError is raised instead.  A non-finite
        phi_ext, or a window of more than MAX_ROOTS segments (beta above
        about 7.9e6 for the sinusoid), raises ValueError before any root is
        solved.
    """
    _require_finite("phi_ext", phi_ext)
    if (cpr is None) != (cpr_prime is None):
        raise ValueError("cpr and cpr_prime must be given together")
    if cpr is not None and not hasattr(cpr, "critical_points"):
        raise ValueError("cpr must carry its critical_points(lam), as reduced_cpr's does")
    c = phi_ext + p.phi_fe
    bounds = _scan_boundaries(c, p, cpr)

    def f(x: float) -> float:
        return residual(x, phi_ext, p, cpr)

    vals = [f(x) for x in bounds]
    roots: list[tuple[float, float]] = []

    def push(root: float, r: float) -> None:  # segments ascend; a shared end comes twice
        if not roots or root > roots[-1][0]:
            roots.append((root, r))

    for (a, b), (fa, fb) in zip(zip(bounds, bounds[1:]), zip(vals, vals[1:])):
        hit = _segment_root(f, lambda x: residual_derivative(x, p, cpr_prime), a, b, fa, fb)
        if hit is not None:
            push(*hit)
    if vals[-1] == 0.0:
        push(bounds[-1], 0.0)
    if not roots:  # the window rounds away about c
        raise NumericsError(f"no root resolved at phi_ext={phi_ext!r}: the root window "
                            f"about c={c!r} is below float resolution")
    return [_fixed_point(root, r, p, cpr, cpr_prime) for root, r in roots]
