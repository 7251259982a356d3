"""Independent oracle for the benchmark's correctness checks.

Written from the defining formula of the screening ring,

    phi = c - (beta/2pi)*sin(2*pi*phi),      c = phi_ext + phi_fe,

with nothing imported from ringflux or from its test suite, so a fault in
the package cannot hide in the expectation.  Roots come from dense
sign-change scans refined by bisection; remnants come from a brute-force
sweep that moves the drive on a uniform grid and keeps the state on the
stable root nearest its previous position.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def residual(phi, c, beta):
    """g(phi) = phi - c + (beta/2pi)*sin(2*pi*phi); zero at a flux state."""
    return phi - c + (beta / TWO_PI) * np.sin(TWO_PI * np.asarray(phi, dtype=float))


def slope(phi, beta):
    """g'(phi) = 1 + beta*cos(2*pi*phi): positive on stable states."""
    return 1.0 + beta * np.cos(TWO_PI * np.asarray(phi, dtype=float))


def bisect(f, a: float, b: float) -> float:
    """Bisection to machine width on a sign-changing bracket of f."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


def _sign_change_roots(f, lo: float, hi: float, step: float) -> list[float]:
    n = max(2, int(math.ceil((hi - lo) / step)))
    x = np.linspace(lo, hi, n + 1)
    y = f(x)
    roots: list[float] = []
    for j in np.nonzero((y[:-1] < 0.0) != (y[1:] < 0.0))[0]:
        r = bisect(lambda t: float(f(t)), float(x[j]), float(x[j + 1]))
        if not roots or r - roots[-1] > 1e-12:
            roots.append(r)
    return roots


def scan_roots(c: float, beta: float, step: float = 1e-4) -> list[float]:
    """Every root of g in its window |phi - c| <= beta/2pi, ascending."""
    lam = beta / TWO_PI
    return _sign_change_roots(lambda x: residual(x, c, beta),
                              c - lam - 1e-9, c + lam + 1e-9, step)


def stable_roots(c: float, beta: float, step: float = 1e-4) -> list[float]:
    return [r for r in scan_roots(c, beta, step) if slope(r, beta) > 0.0]


def scan_folds(beta: float, step: float = 1e-4) -> list[float]:
    """Zeros of g' in one flux period [0, 1): the fold (tangency) fluxes."""
    return _sign_change_roots(lambda x: slope(x, beta), 0.0, 1.0, step)


def trapping_threshold() -> float:
    """Smallest beta at which the one-quantum state exists at zero drive.

    Branch 1 reaches c = 0 when its lower fold sits at c = 0:
    1/2 + phi_a = (beta/2pi)*sin(2*pi*phi_a) with cos(2*pi*phi_a) = 1/beta,
    solved for beta by bisection.
    """
    def h(beta: float) -> float:
        phi_a = math.acos(1.0 / beta) / TWO_PI
        return beta / TWO_PI * math.sin(TWO_PI * phi_a) - 0.5 - phi_a
    return bisect(h, 1.5, 10.0)


def sweep_remnants(beta: float, phi_fe: float, amplitude: float,
                   step: float = 2e-3) -> tuple[float, float]:
    """Zero-drive remnants (descending, ascending) of 0 -> +A -> -A -> 0.

    The drive moves on a uniform grid of spacing `step`.  At every drive
    value the stable states near the occupied one are the upward sign
    changes of g on a scan of the same spacing over the occupied flux
    +/- 1.5 (a jump lands on the nearest surviving stable state, which lies
    within that reach); the state moves to the nearest of them.  The virgin
    state is the stable root nearest phi = 0.  Each zero-drive state is then
    refined by bisection inside its scan cell.
    """
    lam = beta / TWO_PI
    half = 1.5
    grid = np.linspace(-half, half, int(round(2 * half / step)) + 1)
    n = max(1, int(round(amplitude / step)))

    def follow(state: float, start: float, end: float) -> float:
        for phi_ext in np.linspace(start, end, n + 1)[1:]:
            c = float(phi_ext) + phi_fe
            x = np.clip(state + grid, c - lam - 1e-9, c + lam + 1e-9)
            y = residual(x, c, beta)
            up = np.nonzero((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
            cells = 0.5 * (x[up] + x[up + 1])
            state = float(cells[np.argmin(np.abs(cells - state))])
        return state

    def refined(state: float) -> float:
        return min(stable_roots(phi_fe, beta), key=lambda r: abs(r - state))

    state = min(stable_roots(phi_fe, beta), key=abs)
    state = follow(follow(state, 0.0, amplitude), amplitude, 0.0)
    remnant_down = refined(state)
    state = follow(follow(state, 0.0, -amplitude), -amplitude, 0.0)
    return remnant_down, refined(state)
