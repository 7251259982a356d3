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
import sys

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


def _require_normal(name: str, value: float) -> None:
    """A positive finite value no smaller than the least normal float: a
    subnormal one has lost digits, and so has every quotient by it (the flux
    quantum Phi0, which reduce, the free-energy model and the CLI divide by)."""
    _require_positive(name, value)
    if value < sys.float_info.min:
        raise ValueError(f"{name} must be a normal float, at least {sys.float_info.min!r}, "
                         f"got {value!r}")


#: Writes one slot of a _Frozen record, which its own __setattr__ refuses.
_set_field = object.__setattr__


class _Frozen:
    """Base of the validated input records: a slotted, immutable value.

    A subclass names its constructor fields, in order, in `__match_args__`,
    and its `__init__` checks them and stores each with `_set_field`.
    Equality, hash, repr and pickling read those fields alone, and a record
    equals only a record of its own class, never a tuple.  Setting or
    deleting any attribute raises AttributeError.  (The result records are
    NamedTuples.)
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class RingParams(_Frozen):
    """Physical lumped parameters of the ring system (SI units).

    Attributes
    ----------
    L : float
        Self-inductance of the ring [H].
    I_J : float
        Effective Josephson critical current [A].
    Phi0 : float
        Flux quantum [Wb], a normal float; defaults to h/(2e).
    Phi_Fe : float
        Ferromagnetic core flux threading the ring [Wb]; signed.
    area_A : float
        Inner ring area [m^2], used to turn trapped flux into a field.
        Defaults to 1.0 so that field values equal flux values numerically;
        set it explicitly whenever remnant fields matter.
    """

    __slots__ = __match_args__ = ("L", "I_J", "Phi0", "Phi_Fe", "area_A")

    def __init__(self, L: float, I_J: float, Phi0: float = FLUX_QUANTUM, Phi_Fe: float = 0.0,
                 area_A: float = 1.0) -> None:
        _require_positive("L", L)
        _require_positive("I_J", I_J)
        _require_normal("Phi0", Phi0)
        _require_positive("area_A", area_A)
        _require_finite("Phi_Fe", Phi_Fe)
        _set_field(self, "L", L)
        _set_field(self, "I_J", I_J)
        _set_field(self, "Phi0", Phi0)
        _set_field(self, "Phi_Fe", Phi_Fe)
        _set_field(self, "area_A", area_A)


class ReducedParams(_Frozen):
    """Dimensionless ring parameters used by all solvers.

    beta = 2*pi*L*I_J/Phi0 is the hysteresis parameter: a single flux state
    for beta < 1, multiple coexisting states (and hysteresis) for beta > 1.
    phi_fe is the ferromagnetic bias flux in units of Phi0.  lam, the
    screening strength lambda = beta/(2*pi) = L*I_J/Phi0, is divided out
    once; it is not a parameter, and equality, hash and repr ignore it.
    """

    __slots__ = ("beta", "phi_fe", "lam")
    __match_args__ = ("beta", "phi_fe")

    def __init__(self, beta: float, phi_fe: float = 0.0) -> None:
        _require_positive("beta", beta)
        _require_finite("phi_fe", phi_fe)
        _set_field(self, "beta", beta)
        _set_field(self, "phi_fe", phi_fe)
        _set_field(self, "lam", beta / TWO_PI)


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
