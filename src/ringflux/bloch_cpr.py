"""Current-phase relation from a periodic, even free energy of the ring.

Gauge invariance makes the free energy of a superconducting ring a
Phi0-periodic function of the enclosed flux, and spatial inversion makes
it even.  Writing it as a cosine series

    F(Phi) = sum_k c_k * cos(2*pi*k*Phi/Phi0),    k = 1..K,

both symmetries hold by construction (there is nothing to get wrong at
runtime).  The induced supercurrent is I = -dF/dPhi, a periodic odd
function whose fundamental harmonic

    I_0 * sin(2*pi*Phi/Phi0),    I_0 = 2*pi*c_1/Phi0,

is the sinusoidal junction relation; for K = 1 the two coincide exactly.
Sign note: c_1 < 0 puts the free-energy minima at integer flux quanta
(I_0 < 0), c_1 > 0 at half-integers; the junction critical current in
either case is I_J = 2*pi*|c_1|/Phi0.

numpy is imported inside the functions that build arrays, so that importing
ringflux, and the CLI commands that never reach this module, do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .ring_model import FLUX_QUANTUM, TWO_PI


@dataclass(frozen=True)
class FreeEnergyModel:
    """Cosine Fourier coefficients c_k [J], k = 1..K, plus the flux quantum."""

    coeffs: tuple[float, ...]
    Phi0: float = FLUX_QUANTUM

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coefficients must be finite, got {self.coeffs}")
        if not (self.Phi0 > 0.0 and math.isfinite(self.Phi0)):
            raise ValueError(f"Phi0 must be positive and finite, got {self.Phi0}")


def free_energy(model: FreeEnergyModel, Phi) -> float:
    """F(Phi) = sum_k c_k cos(2*pi*k*Phi/Phi0) [J]; accepts scalars or arrays."""
    import numpy as np

    x = TWO_PI * np.asarray(Phi, dtype=float) / model.Phi0
    total = 0.0
    for k, c in enumerate(model.coeffs, start=1):
        total = total + c * np.cos(k * x)
    return total


def current(model: FreeEnergyModel, Phi) -> float:
    """Induced supercurrent I = -dF/dPhi [A], evaluated analytically."""
    import numpy as np

    x = TWO_PI * np.asarray(Phi, dtype=float) / model.Phi0
    total = 0.0
    for k, c in enumerate(model.coeffs, start=1):
        total = total + c * (TWO_PI * k / model.Phi0) * np.sin(k * x)
    return total


def fundamental_harmonic(model: FreeEnergyModel) -> float:
    """Amplitude I_0 = 2*pi*c_1/Phi0 of the leading sine term of the current.

    Signed: negative when the free-energy minima sit at integer flux.  For a
    single-harmonic model this fully determines the relation and |I_0| is
    the junction critical current.
    """
    if len(model.coeffs) == 0:
        raise ValueError("model has no harmonics (K = 0)")
    return TWO_PI * model.coeffs[0] / model.Phi0


class SymmetryReport(NamedTuple):
    """Largest relative deviations from the structural symmetries on a grid."""

    current_periodicity: float
    current_oddness: float
    energy_periodicity: float
    energy_evenness: float

    def max_deviation(self) -> float:
        return max(self)

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_deviation() <= tol


def validate_symmetries(model: FreeEnergyModel, grid_size: int = 64) -> SymmetryReport:
    """Check I periodic/odd and F periodic/even numerically on a uniform grid.

    Deviations are reported relative to the largest |I| (resp. |F|) on the
    grid; a cosine series satisfies all four identities to roundoff, so
    anything beyond ~1e-12 indicates a broken model.
    """
    import numpy as np

    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    Phi = np.linspace(-model.Phi0, model.Phi0, grid_size, endpoint=False)
    I = np.asarray(current(model, Phi))
    F = np.asarray(free_energy(model, Phi))
    i_scale = float(np.max(np.abs(I))) or 1.0
    f_scale = float(np.max(np.abs(F))) or 1.0
    return SymmetryReport(
        current_periodicity=float(np.max(np.abs(current(model, Phi + model.Phi0) - I))) / i_scale,
        current_oddness=float(np.max(np.abs(np.asarray(current(model, -Phi)) + I))) / i_scale,
        energy_periodicity=float(np.max(np.abs(free_energy(model, Phi + model.Phi0) - F))) / f_scale,
        energy_evenness=float(np.max(np.abs(np.asarray(free_energy(model, -Phi)) - F))) / f_scale,
    )


def finite_difference_current_error(model: FreeEnergyModel,
                                    grid_size: int = 257,
                                    rel_step: float = 1e-6) -> float:
    """Largest relative gap between the analytic current and -dF/dPhi by
    central differences, over a grid spanning two flux periods."""
    import numpy as np

    Phi = np.linspace(-model.Phi0, model.Phi0, grid_size)
    h = rel_step * model.Phi0
    fd = -(np.asarray(free_energy(model, Phi + h))
           - np.asarray(free_energy(model, Phi - h))) / (2.0 * h)
    I = np.asarray(current(model, Phi))
    scale = float(np.max(np.abs(I))) or 1.0
    return float(np.max(np.abs(fd - I))) / scale


def reduced_cpr(model: FreeEnergyModel) -> tuple[Callable[[float], float],
                                                 Callable[[float], float],
                                                 float]:
    """Reduced relation (i, di/dphi, I_J) for feeding the fixed-point solver.

    i(phi) = I(phi*Phi0)/I_J with I_J = max|I| over a period, so |i| <= 1 as
    the solver's window arithmetic requires.  For a single harmonic,
    I_J = |I_0| and i(phi) = sign(c_1)*sin(2*pi*phi).
    """
    if len(model.coeffs) == 0:
        raise ValueError("model has no harmonics (K = 0)")
    if len(model.coeffs) == 1:
        i_j = abs(fundamental_harmonic(model))
        sign = math.copysign(1.0, model.coeffs[0])

        def i_fun(phi: float) -> float:
            return sign * math.sin(TWO_PI * phi)

        def di_fun(phi: float) -> float:
            return sign * TWO_PI * math.cos(TWO_PI * phi)

        return i_fun, di_fun, i_j

    import numpy as np

    grid = np.linspace(0.0, 1.0, 4096 * len(model.coeffs), endpoint=False)
    i_j = float(np.max(np.abs(current(model, grid * model.Phi0))))
    if i_j == 0.0:
        raise ValueError("model carries no current (all harmonics zero)")

    def i_fun(phi: float) -> float:
        return float(current(model, phi * model.Phi0)) / i_j

    def di_fun(phi: float) -> float:
        x = TWO_PI * phi
        total = 0.0
        for k, c in enumerate(model.coeffs, start=1):
            total += c * (TWO_PI * k / model.Phi0) * (TWO_PI * k) * math.cos(k * x)
        return total / i_j

    return i_fun, di_fun, i_j
