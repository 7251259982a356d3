"""Inverse problem: recover (beta, phi_fe) from measured hysteresis data.

Observations are remnant fluxes (the Hall-probe observable after a field
excursion) or quasi-static currents.  A remnant observation is keyed by the
signed excursion amplitude that prepared it: +A means "swept to +A and back
to zero" (the descending-pass crossing), -A the mirror image; one full
cycle of amplitude A yields both.  A current is keyed by the drive value
at which it is read along a path from the virgin state at zero drive that
visits the keys in order.  The fold-to-fold kernel of ringflux.sweep
(hysteresis_remnants, path_fluxes) predicts both, one branch solve per
observation and no sweep, so the fit has no sub-step.

Remnant data are first inverted in closed form.  Every remnant r is a
root of the flux balance at zero drive, r - phi_fe + (beta/(2*pi))*sin(2*pi*r)
= 0, whatever branch it sits on, and that equation is linear in
(beta, phi_fe); a 2x2 least-squares solve gives both parameters, and one
forward evaluation checks that the branches the sweeps reach reproduce the
data.  Remnants that all equal one value r make that solve singular but fix
the curve phi_fe = r + (beta/(2*pi))*sin(2*pi*r), whose point at the
initial beta is checked the same way.  When the check passes (exact data
above the trapping threshold, or exact flat data), the fit is done without
a simplex.

Otherwise the fit minimizes the squared residuals.  The forward map has jump
discontinuities in parameter space wherever a fold cascade reconfigures, so
the objective is only piecewise smooth; fitting therefore uses a bounded
Nelder-Mead simplex (`minimize`) with deterministic random restarts rather
than a gradient method.  Restarts stop early once the objective reaches the
machine floor.  One evaluator scores the estimate, every vertex and the
result; a point where the model raises NumericsError scores inf.

Whether the data fix both parameters is read from the predictions at the
result: the Jacobian of every prediction is a multiple of
[-sin(2*pi*phi)/(2*pi), 1], so it has rank 2 exactly when the predictions
take at least two distinct values (FitResult.flat_objective).

numpy is imported only to draw restarts, when a start has missed
OBJECTIVE_FLOOR: importing ringflux loads none, and neither does a
closed-form fit or a fit whose first simplex reaches the floor.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .fixed_points import NumericsError
from .ring_model import TWO_PI, ReducedParams, RingParams, unreduce
from .sweep import SweepSchedule, hysteresis_remnants, path_fluxes

#: Objective value treated as "exactly solved"; further restarts are skipped.
OBJECTIVE_FLOOR = 1e-18

_RESTART_SEED = 1729

#: Each simplex stops at this position and objective tolerance, or after
#: this many iterations.
_SIMPLEX_TOL = 1e-10
_SIMPLEX_MAXITER = 400


class _Minimum(NamedTuple):
    x: tuple[float, float]
    fun: float
    nit: int
    success: bool


def _clip(v: float, lo: float, hi: float) -> float:
    # numpy.clip's order of comparisons, so that a signed zero comes out alike
    v = v if v > lo else lo
    return v if v < hi else hi


# a module attribute called by name: the benchmark's tracer wraps fit.minimize
def minimize(fun, x0: Sequence[float], bounds: Sequence[tuple[float, float]]) -> _Minimum:
    """Bounded Nelder-Mead (Nelder & Mead, 1965) over two parameters.

    A port of scipy.optimize.minimize(method="Nelder-Mead", bounds=...) as
    of scipy 1.17.1, step for step: the initial simplex moves each
    coordinate by 5% (0.00025 when it is zero) and reflects vertices that
    leave the box back into it; reflection, expansion, contraction and
    shrink use the coefficients 1, 2, 1/2 and 1/2; every trial point is
    clipped to the box; the vertices are kept in a stable order of their
    values.  The run stops when every vertex lies within _SIMPLEX_TOL of the
    best in each coordinate and in value (success; scipy's xatol and fatol),
    or after _SIMPLEX_MAXITER iterations, counted from 1 as scipy counts
    them (no success).  `fun` takes a pair of floats and returns a float
    that is never NaN.
    """
    (lo0, hi0), (lo1, hi1) = bounds

    def clip(p):
        return (_clip(p[0], lo0, hi0), _clip(p[1], lo1, hi1))

    start = clip(x0)
    sim = [start]
    for k in range(2):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        # a vertex past an upper bound is reflected back into the box
        sim.append(clip([2 * hi - v if v > hi else v for v, hi in zip(y, (hi0, hi1))]))
    fsim = [fun(p) for p in sim]

    def order():
        idx = sorted(range(3), key=fsim.__getitem__)
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    def trial(t):
        # (1 + t)*xbar - t*worst: reflection t = 1, expansion 2, contractions +-1/2
        p = clip([(1 + t) * xbar[i] - t * worst[i] for i in range(2)])
        return p, fun(p)

    sim, fsim = order()
    iterations = 1
    while iterations < _SIMPLEX_MAXITER:
        best, worst = sim[0], sim[2]
        if (all(abs(p[i] - best[i]) <= _SIMPLEX_TOL for p in sim[1:] for i in range(2))
                and all(abs(fsim[0] - f) <= _SIMPLEX_TOL for f in fsim[1:])):
            break
        xbar = [(best[i] + sim[1][i]) / 2 for i in range(2)]
        xr, fxr = trial(1)
        if fxr < fsim[0]:
            xe, fxe = trial(2)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        else:
            outside = fxr < fsim[2]
            xc, fxc = trial(0.5 if outside else -0.5)
            if (fxc <= fxr) if outside else (fxc < fsim[2]):
                sim[2], fsim[2] = xc, fxc
            else:
                for j in (1, 2):
                    sim[j] = clip([best[i] + 0.5 * (sim[j][i] - best[i]) for i in range(2)])
                    fsim[j] = fun(sim[j])
        iterations += 1
        sim, fsim = order()
    return _Minimum(sim[0], fsim[0], iterations, iterations < _SIMPLEX_MAXITER)


class ObservationKind(enum.Enum):
    REMNANT_FLUX = "remnant"
    CURRENT = "current"


@dataclass(frozen=True)
class Observation:
    """One measured point: drive key, observed value (reduced units), kind."""

    phi_ext: float
    observable: float
    kind: ObservationKind = ObservationKind.REMNANT_FLUX

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phi_ext) and math.isfinite(self.observable)):
            raise ValueError(
                f"observation values must be finite, got ({self.phi_ext}, {self.observable})")


@dataclass(frozen=True)
class FitBounds:
    """Search box for (beta, phi_fe)."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    phi_fe_min: float = -0.5
    phi_fe_max: float = 0.5

    def __post_init__(self) -> None:
        box = (self.beta_min, self.beta_max, self.phi_fe_min, self.phi_fe_max)
        if not all(math.isfinite(v) for v in box):
            raise ValueError(f"fit bounds must be finite, got {box}")
        if not (0.0 < self.beta_min <= self.beta_max):
            raise ValueError(
                f"need 0 < beta_min <= beta_max, got [{self.beta_min}, {self.beta_max}]")
        if not (self.phi_fe_min <= self.phi_fe_max):
            raise ValueError(
                f"need phi_fe_min <= phi_fe_max, got [{self.phi_fe_min}, {self.phi_fe_max}]")

    def clip(self, beta: float, phi_fe: float) -> tuple[float, float]:
        return (_clip(beta, self.beta_min, self.beta_max),
                _clip(phi_fe, self.phi_fe_min, self.phi_fe_max))


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, with convergence diagnostics.
    `objective_value` is the sum of squared residuals there, exactly rounded
    (math.fsum of the squares).  `iterations` sums the simplex iterations of
    every start; it is 0 when the closed-form remnant estimate fits the data
    and no simplex ran.  `converged` is the simplex's stopping status (true
    for a closed-form fit).

    `flat_objective` is true when the predictions at `params` take fewer
    than two distinct values: the data then fix only one combination of
    (beta, phi_fe), as below the trapping threshold, where every remnant
    sits on one branch.  Each prediction's parameter Jacobian is
    D*[-sin(2*pi*phi)/(2*pi), 1], with D = 1/g' for a remnant phi = r and
    D = 2*pi*cos(2*pi*phi)/g' for a current sin(2*pi*phi), and
    sin(2*pi*r) = (phi_fe - r)/lam for a remnant, so the rows span both
    directions exactly when two predictions differ.  A current of exactly
    +-1 has D = 0, a zero row, which this rule does not single out."""

    params: ReducedParams
    objective_value: float
    iterations: int
    converged: bool
    flat_objective: bool

    def to_ring(self, I_J: float, Phi0: float, area_A: float = 1.0) -> RingParams:
        """SI back-conversion of the fitted reduced parameters."""
        return unreduce(self.params, I_J, Phi0, area_A)


def simulate_observables(p: ReducedParams, protocol: SweepSchedule | Sequence[float],
                         kind: ObservationKind = ObservationKind.REMNANT_FLUX) -> list[float]:
    """Forward predictions for each protocol entry, matching `kind`.  The
    protocol is a sequence of keys; of a SweepSchedule only the waypoints
    are read.

    REMNANT_FLUX: the keys are nonzero signed excursion amplitudes; each
    prediction is the remnant flux at zero drive after a cycle of that
    amplitude (descending crossing for +A, ascending for -A), from
    sweep.hysteresis_remnants.  Repeated amplitudes are repeated
    measurements.

    CURRENT: the keys are drive values visited in order from the virgin
    state at zero drive; each prediction is the reduced current there, from
    sweep.path_fluxes.
    """
    keys = tuple(protocol.waypoints if isinstance(protocol, SweepSchedule) else protocol)
    if kind is ObservationKind.CURRENT:
        return [math.sin(TWO_PI * phi) for phi in path_fluxes(p, keys)]
    if any(a == 0.0 for a in keys):
        raise ValueError("remnant observations need a nonzero amplitude")
    unique = tuple(dict.fromkeys(abs(a) for a in keys))
    loops = dict(zip(unique, hysteresis_remnants(p, unique)))
    return [loops[abs(a)][0 if a > 0.0 else 1] for a in keys]


def _evaluate(data: list[Observation], x: Sequence[float]) -> tuple[float, list[float]]:
    """(objective, predictions) at (beta, phi_fe) = x, the fit's one scoring
    rule.  The objective is math.fsum of the squared residuals, so neither
    the order of the data nor the platform changes it, and inf where it
    overflows or a prediction is NaN.  A point where the model raises
    NumericsError scores (inf, []), the extreme barrier of direct search
    (Audet & Dennis, 2006): the simplex walks away from it."""
    p = ReducedParams(beta=float(x[0]), phi_fe=float(x[1]))
    try:
        predictions = simulate_observables(p, [o.phi_ext for o in data], data[0].kind)
    except NumericsError:
        return math.inf, []
    residuals = [s - o.observable for s, o in zip(predictions, data)]
    try:
        value = math.fsum(r * r for r in residuals)
    except OverflowError:  # fsum raises where its partial sums overflow
        return math.inf, predictions
    return (value if math.isfinite(value) else math.inf), predictions


def _objective(data: list[Observation]):
    """The objective at (beta, phi_fe), from _evaluate."""
    return lambda x: _evaluate(data, x)[0]


def _remnant_estimate(data: list[Observation]) -> tuple[float, float] | None:
    """(beta, phi_fe) from remnant values alone, or None when the solve is singular.

    Each remnant r_i solves phi_fe - beta*s_i = r_i with
    s_i = sin(2*pi*r_i)/(2*pi), on whichever branch it sits; this is the
    2x2 least-squares solve of those equations, singular (None) when fewer
    than two distinct s_i occur.
    """
    r = [o.observable for o in data]
    s = [math.sin(TWO_PI * v) / TWO_PI for v in r]
    # measured from s_0, equal s_i make the determinant exactly 0
    d = [v - s[0] for v in s]
    n, sd, sr = len(r), math.fsum(d), math.fsum(r)
    det = n * math.fsum(v * v for v in d) - sd * sd
    if not det > 0.0:
        return None
    beta = (sd * sr - n * math.fsum(u * v for u, v in zip(d, r))) / det
    return beta, (sr + beta * sd) / n + beta * s[0]


def _restarts(bounds: FitBounds):
    """Restart points, uniform in the box, from default_rng(_RESTART_SEED):
    the same sequence on every fit.  numpy is imported at the first draw."""
    import numpy as np

    rng = np.random.default_rng(_RESTART_SEED)
    while True:
        yield (rng.uniform(bounds.beta_min, bounds.beta_max),
               rng.uniform(bounds.phi_fe_min, bounds.phi_fe_max))


def fit_parameters(data: list[Observation], initial: ReducedParams,
                   bounds: FitBounds | None = None,
                   n_restarts: int = 2) -> FitResult:
    """Least-squares fit of (beta, phi_fe) to observed hysteresis data.

    Remnant data are first inverted in closed form (_remnant_estimate, or
    for remnants all equal to r the point of the curve
    phi_fe = r + (beta/(2*pi))*sin(2*pi*r) at the initial beta); when the
    estimate, clipped to the bounds, reproduces the data to OBJECTIVE_FLOOR
    it is the result, with iterations 0 and converged true.  Otherwise the
    estimate is dropped and the fit runs a bound-projected
    Nelder-Mead (`minimize`) from the initial guess plus `n_restarts`
    deterministic random restarts inside the bounds, keeping the best
    minimum.  Each simplex runs at most 400 iterations to an
    objective and position tolerance of 1e-10; a vertex where the model
    raises NumericsError scores inf, and a fit that never reaches a finite
    objective raises NumericsError.  flat_objective is true
    when the predictions at the result take fewer than two distinct values
    (see FitResult): a closed-form fit reads them from its one forward
    evaluation, and a simplex fit makes one more, at its result.  Every
    prediction comes from the fold-to-fold kernel (simulate_observables),
    so no sweep and no sub-step is involved.  numpy is imported only to
    draw a restart, so a closed-form fit, or one whose first simplex
    reaches OBJECTIVE_FLOOR, loads none.
    """
    if len(data) < 3:
        raise ValueError(f"need at least 3 observations, got {len(data)}")
    kinds = {o.kind for o in data}
    if len(kinds) > 1:
        raise ValueError(f"observations mix kinds {sorted(k.value for k in kinds)}")
    if n_restarts < 0:
        raise ValueError(f"n_restarts must be >= 0, got {n_restarts}")
    bounds = bounds or FitBounds()
    b0, f0 = bounds.clip(initial.beta, initial.phi_fe)
    if (b0, f0) != (initial.beta, initial.phi_fe):
        raise ValueError(
            f"initial point ({initial.beta}, {initial.phi_fe}) lies outside the bounds")

    if data[0].kind is ObservationKind.REMNANT_FLUX:
        r = data[0].observable
        estimate = ((b0, r + b0 / TWO_PI * math.sin(TWO_PI * r))
                    if all(o.observable == r for o in data) else _remnant_estimate(data))
        if estimate is not None and all(map(math.isfinite, estimate)):
            x = bounds.clip(*estimate)
            value, predictions = _evaluate(data, x)
            if value <= OBJECTIVE_FLOOR:
                return FitResult(params=ReducedParams(beta=x[0], phi_fe=x[1]),
                                 objective_value=value, iterations=0, converged=True,
                                 flat_objective=len(set(predictions)) < 2)

    # islice(..., 0) never starts the generator: a fit without restarts imports no numpy
    starts = itertools.chain([(initial.beta, initial.phi_fe)],
                             itertools.islice(_restarts(bounds), n_restarts))
    box = [(bounds.beta_min, bounds.beta_max), (bounds.phi_fe_min, bounds.phi_fe_max)]
    objective = _objective(data)
    best = None
    iterations = 0
    for x0 in starts:
        res = minimize(objective, x0, box)
        iterations += res.nit
        if best is None or res.fun < best.fun:
            best = res
        if best.fun <= OBJECTIVE_FLOOR:
            break

    if not math.isfinite(best.fun):
        raise NumericsError(f"objective never reached a finite value; last iterate {best.x}")
    return FitResult(
        params=ReducedParams(beta=best.x[0], phi_fe=best.x[1]),
        objective_value=best.fun,
        iterations=iterations,
        converged=best.success,
        flat_objective=len(set(_evaluate(data, best.x)[1])) < 2,
    )
