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

Every evaluation of the series goes through `_series`, in `math`; only
`_cosine_zeros` imports numpy, for `np.roots`, which `bloch-check` never reaches.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .fixed_points import Relation
from .ring_model import FLUX_QUANTUM, TWO_PI

#: Largest relative symmetry deviation (SymmetryReport.passed) and
#: finite-difference gap (finite_difference_current_error) of a sound model:
#: a cosine series meets the symmetries to rounding, and central differences
#: at FD_REL_STEP*Phi0 over FD_GRID_SIZE points agree to a few 1e-10.
SYMMETRY_TOL = 1e-12
FD_TOL = 1e-6
FD_REL_STEP = 1e-6
FD_GRID_SIZE = 257

#: Most grid points validate_symmetries takes, a bound on time: its one pass
#: holds no array, and `bloch-check` at the cap took 6.1-6.7 s with K = 1 and
#: 11.9-12.2 s with K = 10 (2-core x86-64, Python 3.11), at 16 MB peak RSS.
MAX_GRID_SIZE = 1_000_000


@dataclass(frozen=True)
class FreeEnergyModel:
    """Cosine coefficients c_k [J], k = 1..K, not all zero, plus the flux
    quantum.  The sums of |c_k| and of the current amplitudes |2*pi*k*c_k/Phi0|
    must be finite: they bound every value of the series, so no check of a
    model can overflow to NaN."""

    coeffs: tuple[float, ...]
    Phi0: float = FLUX_QUANTUM

    def __post_init__(self) -> None:
        if not (self.Phi0 > 0.0 and math.isfinite(self.Phi0)):
            raise ValueError(f"Phi0 must be positive and finite, got {self.Phi0}")
        # summed as _series sums: the partial sums of |w_k| are monotone, so the last bounds all
        if not all(math.isfinite(sum(map(abs, w))) for w in (self.coeffs, _amplitudes(self))):
            raise ValueError("the sums of |c_k| and of the current amplitudes |2*pi*k*c_k/Phi0| "
                             f"must be finite, got {self.coeffs} at Phi0 = {self.Phi0}")
        if not any(self.coeffs):
            raise ValueError(f"model has no current: every coefficient is zero in {self.coeffs}")


def _amplitudes(model: FreeEnergyModel) -> list[float]:
    """a_k = 2*pi*k*c_k/Phi0 [A], the sine amplitudes of the current."""
    return [TWO_PI * k * c / model.Phi0 for k, c in enumerate(model.coeffs, start=1)]


def free_energy(model: FreeEnergyModel, Phi: float) -> float:
    """F(Phi) = sum_k c_k cos(2*pi*k*Phi/Phi0) [J]."""
    return _series(math.cos, model.coeffs, Phi / model.Phi0)


def current(model: FreeEnergyModel, Phi: float) -> float:
    """Induced supercurrent I = -dF/dPhi = sum_k a_k sin(2*pi*k*Phi/Phi0) [A]."""
    return _series(math.sin, _amplitudes(model), Phi / model.Phi0)


def fundamental_harmonic(model: FreeEnergyModel) -> float:
    """Amplitude I_0 = 2*pi*c_1/Phi0 of the leading sine term of the current.

    Signed: negative when the free-energy minima sit at integer flux.  For a
    single-harmonic model this fully determines the relation and |I_0| is
    the junction critical current.
    """
    return TWO_PI * model.coeffs[0] / model.Phi0


class SymmetryReport(NamedTuple):
    """Largest relative deviations from flux periodicity on a grid.  Oddness
    of I and evenness of F are not checked: a cosine series meets them bit
    for bit, since -phi is exact, sin is odd and cos is even."""

    current_periodicity: float
    energy_periodicity: float

    def max_deviation(self) -> float:
        return max(self)

    def passed(self) -> bool:
        return self.max_deviation() <= SYMMETRY_TOL


def validate_symmetries(model: FreeEnergyModel, grid_size: int = 64) -> SymmetryReport:
    """Check that I and F are Phi0-periodic numerically on a uniform grid.

    Deviations are reported relative to the largest |I| (resp. |F|) on the
    grid; a cosine series satisfies both identities to roundoff, so
    anything beyond SYMMETRY_TOL indicates a broken model.  A grid_size
    outside [16, MAX_GRID_SIZE] raises ValueError before any point is taken.
    """
    if not 16 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be in [16, {MAX_GRID_SIZE}], got {grid_size}")
    F = functools.partial(_series, math.cos, model.coeffs)
    I = functools.partial(_series, math.sin, _amplitudes(model))
    grid = (j * (2.0 / grid_size) - 1.0 for j in range(grid_size))  # phi in [-1, 1)
    i_scale, f_scale, i_gap, f_gap = _peaks(
        ((i := I(phi)), (f := F(phi)), I(phi + 1.0) - i, F(phi + 1.0) - f) for phi in grid)
    return SymmetryReport(i_gap / (i_scale or 1.0), f_gap / (f_scale or 1.0))


def finite_difference_current_error(model: FreeEnergyModel) -> float:
    """Largest relative gap between the analytic current and -dF/dPhi by
    central differences at step FD_REL_STEP*Phi0, over FD_GRID_SIZE points
    spanning two flux periods."""
    F = functools.partial(_series, math.cos, model.coeffs)
    I = functools.partial(_series, math.sin, _amplitudes(model))
    grid = (j * (2.0 / (FD_GRID_SIZE - 1)) - 1.0 for j in range(FD_GRID_SIZE))  # phi in [-1, 1]
    scale, gap = _peaks(((i := I(phi)), (F(phi - FD_REL_STEP) - F(phi + FD_REL_STEP))
                         / (2.0 * FD_REL_STEP * model.Phi0) - i) for phi in grid)
    return gap / (scale or 1.0)


def _peaks(rows: Iterable[tuple[float, ...]]) -> list[float]:
    """The largest |value| in each column of rows, in one pass."""
    peaks = itertools.repeat(0.0)  # zip cuts it to the width of a row
    for row in rows:
        peaks = [max(p, abs(v)) for p, v in zip(peaks, row)]
    return peaks


def _cosine_zeros(d0: float, d: list[float]) -> list[float]:
    """Ascending zeros in [0, 1) of d0 + sum_k d_k*cos(2*pi*k*phi): the roots
    within 1e-6 of the unit circle (a double zero splits by about sqrt(eps))
    of d0*z**K + sum_k d_k*(z**(K+k) + z**(K-k))/2, z = exp(2*pi*i*phi).  Top
    harmonics under 1e-13 of the largest coefficient are dropped, since they
    push the computed unit roots off the circle (by 1.5e-6 at 4e-15)."""
    import numpy as np

    while d and abs(d[-1]) <= 1e-13 * max(abs(d0), *map(abs, d)):
        d = d[:-1]
    half = [0.5 * x for x in reversed(d)]
    return sorted(math.atan2(z.imag, z.real) / TWO_PI % 1.0
                  for z in np.roots(half + [d0] + half[::-1]) if abs(abs(z) - 1.0) <= 1e-6)


def _series(fn: Callable[[float], float], w: Sequence[float], phi: float) -> float:
    """sum_k w_k*fn(2*pi*k*phi), k = 1..K."""
    x = TWO_PI * phi
    return sum(a * fn(k * x) for k, a in enumerate(w, start=1))


def reduced_cpr(model: FreeEnergyModel) -> tuple[Relation, float]:
    """(Relation, I_J): the model's reduced relation, the solvers' `cpr`, and I_J [A].

    i(phi) = I(phi*Phi0)/I_J with I_J = max|I|, taken at the zeros of I', so
    |i| <= 1 to rounding as the solver's window arithmetic requires; for a
    single harmonic, I_J = |I_0| and i(phi) = sign(c_1)*sin(2*pi*phi) bit for
    bit.  i and di = i' are pure `math`; critical_points(lam) gives the zeros
    of g' = 1 + lam*i' in [0, 1), where find_fixed_points splits the window.
    """
    amps = _amplitudes(model)
    peaks = _cosine_zeros(0.0, [k * a for k, a in enumerate(amps, start=1)])
    i_j = max((abs(_series(math.sin, amps, t)) for t in peaks), default=0.0)
    if not 0.0 < i_j < math.inf:
        raise ValueError("model current must be nonzero and finite")
    b = [a / i_j for a in amps]
    slope = [TWO_PI * k * bk for k, bk in enumerate(b, start=1)]
    return Relation(functools.partial(_series, math.sin, b),
                    functools.partial(_series, math.cos, slope),
                    lambda lam: _cosine_zeros(1.0, [lam * s for s in slope])), i_j
