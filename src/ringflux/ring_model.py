"""Lumped parameters of the ring system and unit reduction.

Units:
- all RingParams fields are SI (henry, ampere, weber, square meter);
- solver-facing quantities are dimensionless: flux in units of the flux
  quantum Phi0, current in units of the junction critical current I_J.

SI conversion happens only at I/O boundaries; every solver in this package
works on ReducedParams.  Raw webers (Phi0 ~ 2e-15) make root finding
numerically hostile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi

# ---- Fundamental constants: h and e are exact in the 2019 SI; m_e is the
# measured CODATA 2022 value ----
PLANCK_H: float = 6.62607015e-34  # [J*s]
ELEMENTARY_CHARGE: float = 1.602176634e-19  # [C]
ELECTRON_MASS: float = 9.1093837139e-31  # [kg]

#: Magnetic flux quantum h/(2e) [Wb].  This is the package default; rounded
#: literature values (e.g. 2.07e-15) are accepted as explicit inputs.
FLUX_QUANTUM: float = PLANCK_H / (2.0 * ELEMENTARY_CHARGE)


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RingParams:
    """Physical lumped parameters of the ring system (SI units).

    Attributes
    ----------
    L : float
        Self-inductance of the ring [H].
    I_J : float
        Effective Josephson critical current [A].
    Phi0 : float
        Flux quantum [Wb]; defaults to h/(2e).
    Phi_Fe : float
        Ferromagnetic core flux threading the ring [Wb]; signed.
    area_A : float
        Inner ring area [m^2], used to turn trapped flux into a field.
        Defaults to 1.0 so that field values equal flux values numerically;
        set it explicitly whenever remnant fields matter.
    """

    L: float
    I_J: float
    Phi0: float = FLUX_QUANTUM
    Phi_Fe: float = 0.0
    area_A: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("L", self.L)
        _require_positive("I_J", self.I_J)
        _require_positive("Phi0", self.Phi0)
        _require_positive("area_A", self.area_A)
        _require_finite("Phi_Fe", self.Phi_Fe)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless ring parameters used by all solvers.

    beta = 2*pi*L*I_J/Phi0 is the hysteresis parameter: a single flux state
    for beta < 1, multiple coexisting states (and hysteresis) for beta > 1.
    phi_fe is the ferromagnetic bias flux in units of Phi0.
    """

    beta: float
    phi_fe: float = 0.0
    #: Screening strength lambda = beta/(2*pi) = L*I_J/Phi0, divided out once.
    lam: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive("beta", self.beta)
        _require_finite("phi_fe", self.phi_fe)
        object.__setattr__(self, "lam", self.beta / TWO_PI)


def reduce(params: RingParams) -> ReducedParams:
    """Convert SI ring parameters to the dimensionless solver form."""
    beta = TWO_PI * params.L * params.I_J / params.Phi0
    return ReducedParams(beta=beta, phi_fe=params.Phi_Fe / params.Phi0)


def unreduce(
    p: ReducedParams,
    I_J: float,
    Phi0: float = FLUX_QUANTUM,
    area_A: float = 1.0,
) -> RingParams:
    """Back-convert reduced parameters to SI, given the current/flux scales.

    The reduced form fixes only the products, so one SI scale (here I_J,
    along with Phi0) must be supplied to pin down L = beta*Phi0/(2*pi*I_J).
    """
    _require_positive("I_J", I_J)
    _require_positive("Phi0", Phi0)
    return RingParams(
        L=p.beta * Phi0 / (TWO_PI * I_J),
        I_J=I_J,
        Phi0=Phi0,
        Phi_Fe=p.phi_fe * Phi0,
        area_A=area_A,
    )
