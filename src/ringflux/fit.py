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

The forward map has jump discontinuities in parameter space wherever a
fold cascade reconfigures, so the objective is only piecewise smooth;
fitting therefore uses a bounded Nelder-Mead simplex with deterministic
random restarts rather than a gradient method.  Restarts stop early once
the objective reaches the machine floor.

numpy and scipy.optimize are imported inside the functions that use them,
so that importing ringflux, and every CLI command but `fit`, loads neither.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .fixed_points import NumericsError
from .ring_model import TWO_PI, ReducedParams, RingParams, unreduce
# run_hysteresis and run_schedule are unused: the benchmark's tracer wraps fit.run_*
from .sweep import (SweepSchedule, hysteresis_remnants, path_fluxes,  # noqa: F401
                    run_hysteresis, run_schedule)

#: Objective value treated as "exactly solved"; further restarts are skipped.
OBJECTIVE_FLOOR = 1e-18

#: Objective spread along a parameter axis below which that direction is
#: deemed information-free (e.g. beta below 1 on all-zero remnant data).
FLAT_OBJECTIVE_SPREAD = 1e-12

_FLAT_PROBES = 5

_RESTART_SEED = 1729


# a module attribute, not an import inside fit_parameters: the benchmark's
# tracer wraps fit.minimize
def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


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
        if not (0.0 < self.beta_min <= self.beta_max):
            raise ValueError(
                f"need 0 < beta_min <= beta_max, got [{self.beta_min}, {self.beta_max}]")
        if not (self.phi_fe_min <= self.phi_fe_max):
            raise ValueError(
                f"need phi_fe_min <= phi_fe_max, got [{self.phi_fe_min}, {self.phi_fe_max}]")

    def clip(self, beta: float, phi_fe: float) -> tuple[float, float]:
        return (min(max(beta, self.beta_min), self.beta_max),
                min(max(phi_fe, self.phi_fe_min), self.phi_fe_max))


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, with convergence diagnostics."""

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


def _objective(data: list[Observation]):
    import numpy as np

    kind = data[0].kind
    keys = tuple(o.phi_ext for o in data)
    observed = np.array([o.observable for o in data])

    def fun(x) -> float:
        p = ReducedParams(beta=float(x[0]), phi_fe=float(x[1]))
        r = np.array(simulate_observables(p, keys, kind)) - observed
        value = float(r @ r)
        return value if math.isfinite(value) else math.inf

    return fun


def _flat_directions(objective, best: Sequence[float], bounds: FitBounds) -> bool:
    """True when the objective is constant (to FLAT_OBJECTIVE_SPREAD) along
    either parameter axis across the whole search box - the data then carry
    no information about that parameter."""
    import numpy as np

    betas = np.linspace(bounds.beta_min, bounds.beta_max, _FLAT_PROBES)
    fes = np.linspace(bounds.phi_fe_min, bounds.phi_fe_max, _FLAT_PROBES)
    beta_spread = np.ptp([objective((b, best[1])) for b in betas])
    fe_spread = np.ptp([objective((best[0], f)) for f in fes])
    return bool(min(beta_spread, fe_spread) < FLAT_OBJECTIVE_SPREAD)


def fit_parameters(data: list[Observation], initial: ReducedParams,
                   bounds: FitBounds | None = None,
                   n_restarts: int = 2) -> FitResult:
    """Least-squares fit of (beta, phi_fe) to observed hysteresis data.

    Runs a bound-projected Nelder-Mead from the initial guess plus
    `n_restarts` deterministic random restarts inside the bounds, keeping
    the best minimum.  Each simplex runs at most 400 iterations to an
    objective and position tolerance of 1e-10; convergence additionally
    requires the returned objective to be finite.  The flat_objective flag
    marks an information-free data set: the objective stays constant along
    a whole parameter axis of the search box (e.g. beta on all-zero
    remnants when beta_max < 1).  Every prediction comes from the
    fold-to-fold kernel (simulate_observables), so no sweep and no sub-step
    is involved.
    """
    import numpy as np

    if len(data) == 0:
        raise ValueError("no observations given")
    if len(data) < 3:
        raise ValueError(f"need at least 3 observations, got {len(data)}")
    kinds = {o.kind for o in data}
    if len(kinds) > 1:
        raise ValueError(f"observations mix kinds {sorted(k.value for k in kinds)}")
    bounds = bounds or FitBounds()
    b0, f0 = bounds.clip(initial.beta, initial.phi_fe)
    if (b0, f0) != (initial.beta, initial.phi_fe):
        raise ValueError(
            f"initial point ({initial.beta}, {initial.phi_fe}) lies outside the bounds")

    objective = _objective(data)
    rng = np.random.default_rng(_RESTART_SEED)
    starts = [np.array([initial.beta, initial.phi_fe])]
    for _ in range(n_restarts):
        starts.append(np.array([
            rng.uniform(bounds.beta_min, bounds.beta_max),
            rng.uniform(bounds.phi_fe_min, bounds.phi_fe_max),
        ]))

    box = [(bounds.beta_min, bounds.beta_max), (bounds.phi_fe_min, bounds.phi_fe_max)]
    best = None
    iterations = 0
    converged = False
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead", bounds=box,
                       options={"fatol": 1e-10, "xatol": 1e-10, "maxiter": 400})
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
            converged = bool(res.success) and math.isfinite(res.fun)
        if best.fun <= OBJECTIVE_FLOOR:
            break

    if best is None or not math.isfinite(best.fun):
        raise NumericsError(
            f"objective never reached a finite value; last iterate {best.x if best is not None else None}")
    beta, phi_fe = bounds.clip(float(best.x[0]), float(best.x[1]))
    return FitResult(
        params=ReducedParams(beta=beta, phi_fe=phi_fe),
        objective_value=float(best.fun),
        iterations=iterations,
        converged=converged,
        flat_objective=_flat_directions(objective, best.x, bounds),
    )
