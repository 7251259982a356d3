"""Independent numerical oracles used across the test suite.

Everything here recomputes results from the defining formulas by brute
force (dense scans, bisection, finite differences) without touching the
package's solver paths, so a bug in the implementation cannot hide in the
expectation.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def residual_formula(phi, phi_ext, beta, phi_fe=0.0, cpr=None):
    """g(phi) = phi - (phi_ext + phi_fe) + (beta/2pi)*i(phi), written out from
    scratch: the flux balance phi = phi_ext + phi_fe - (beta/2pi)*i(phi) of a
    screening ring.  `cpr` replaces the sinusoid i(phi) = sin(2*pi*phi)."""
    phi = np.asarray(phi)
    i = np.sin(TWO_PI * phi) if cpr is None else cpr(phi)
    return phi - (phi_ext + phi_fe) + (beta / TWO_PI) * i


def residual_slope(phi, beta):
    """g'(phi) = 1 + beta*cos(2*pi*phi) for the sinusoid."""
    return 1.0 + beta * math.cos(TWO_PI * phi)


def branch_index(phi, beta):
    """Index k of the stable branch [k - e, k + e], e = 1/2 - phi_a, that holds
    the flux phi: floor(phi + e), with cos(2*pi*phi_a) = 1/beta written as
    phi_a = atan(sqrt(beta**2 - 1))/(2*pi).  Meaningful for stable roots; for
    beta <= 1 there is a single global branch 0."""
    if beta <= 1.0:
        return 0
    phi_a = math.atan(math.sqrt((beta - 1.0) * (beta + 1.0))) / TWO_PI
    return int(math.floor(phi + 0.5 - phi_a))


def brute_force_roots(phi_ext, beta, phi_fe=0.0, step=1e-5, refine=True, cpr=None):
    """All roots of g in the analytic window, by dense sign-change scan.

    Brackets are refined by plain bisection so the expected positions are
    good to ~1e-12 (without refinement they are only good to `step`).
    `cpr`, a relation |i| <= 1 evaluated on arrays, replaces the sinusoid.
    """
    lam = beta / TWO_PI
    c = phi_ext + phi_fe
    lo, hi = c - lam - 1e-9, c + lam + 1e-9
    n = int(math.ceil((hi - lo) / step))
    x = np.linspace(lo, hi, n + 1)
    y = residual_formula(x, phi_ext, beta, phi_fe, cpr)

    def refine_bracket(a, b, fa, fb):
        if not refine:
            return 0.5 * (a + b)
        for _ in range(200):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            fm = float(residual_formula(m, phi_ext, beta, phi_fe, cpr))
            if fm == 0.0:
                return m
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b, fb = m, fm
        return a if abs(fa) <= abs(fb) else b

    candidates = np.nonzero((y[:-1] == 0.0) | ((y[:-1] < 0.0) != (y[1:] < 0.0)))[0]
    roots = []
    for i in candidates:
        fa, fb = float(y[i]), float(y[i + 1])
        if fa == 0.0:
            r = float(x[i])
        elif fb == 0.0:
            continue  # owned by the next cell's left endpoint
        else:
            r = refine_bracket(float(x[i]), float(x[i + 1]), fa, fb)
        if not roots or r - roots[-1] > 1e-9:
            roots.append(r)
    if float(y[-1]) == 0.0 and (not roots or x[-1] - roots[-1] > 1e-9):
        roots.append(float(x[-1]))
    return np.array(roots)


def brute_stability(phi, beta):
    """Sign of g' from the formula: +1 stable, -1 unstable, 0 marginal."""
    s = residual_slope(phi, beta)
    if s > 1e-9:
        return 1
    if s < -1e-9:
        return -1
    return 0


def brute_sweep_remnants(beta, amplitude, phi_fe=0.0, step=1e-3):
    """Zero-drive remnants (descending, ascending) of the cycle
    0 -> +amplitude -> -amplitude -> 0, by brute force.

    The drive moves on a uniform grid of spacing `step`.  At every drive
    value the stable roots are the upward sign changes of g on a dense scan
    of the same spacing, and the state moves to the stable root nearest its
    previous position; when its own branch has vanished, that is the jump to
    the nearest surviving stable root.  The virgin state is the stable root
    nearest phi = 0.  Each zero-drive state is then refined by bisection
    (brute_force_roots), so the remnants are good to ~1e-12 whenever the
    scan tracks the right branch.
    """
    lam = beta / TWO_PI
    n = int(round(amplitude / step))

    def stable_cells(phi_ext):
        c = phi_ext + phi_fe
        x = np.linspace(c - lam - 1e-9, c + lam + 1e-9,
                        int(math.ceil((2.0 * lam + 2e-9) / step)) + 1)
        y = residual_formula(x, phi_ext, beta, phi_fe)
        up = np.nonzero((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
        return 0.5 * (x[up] + x[up + 1])

    def follow(state, start, end):
        for phi_ext in np.linspace(start, end, n + 1)[1:]:
            cells = stable_cells(float(phi_ext))
            state = float(cells[np.argmin(np.abs(cells - state))])
        return state

    def refined(state):
        roots = [r for r in brute_force_roots(0.0, beta, phi_fe)
                 if brute_stability(r, beta) == 1]
        return float(min(roots, key=lambda r: abs(r - state)))

    state = float(min(stable_cells(0.0), key=abs))
    state = follow(follow(state, 0.0, amplitude), amplitude, 0.0)
    remnant_down = refined(state)
    state = follow(follow(state, 0.0, -amplitude), -amplitude, 0.0)
    return remnant_down, refined(state)


def bracketed_newton(f, df, a, b, fa, fb, x0):
    """(x, f(x)) at the root of f in the sign bracket a < b, fa*fb < 0.

    The package's Newton loop with f and its slope df as callables, kept as
    the reference its inline kernel must match bit for bit.  Newton from
    x0; each evaluated point becomes a bracket end.  A step out of the
    bracket bisects it, and a step that rounds to x moves one float toward
    the other end.  Unless f rounds to 0 first, the solve ends on two
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


def central_difference(f, x, h):
    """Plain symmetric difference quotient."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


if __name__ == "__main__":
    # regenerate the frozen remnants of tests/test_sweep.py
    for beta in (3.0, 5.0, 10.0):
        print(f"beta={beta}: remnants (down, up) = {brute_sweep_remnants(beta, 3.0)}")
    print(f"beta=5.0, phi_fe=0.3: remnants (down, up) = "
          f"{brute_sweep_remnants(5.0, 3.0, phi_fe=0.3)}")
