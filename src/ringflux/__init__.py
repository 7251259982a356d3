"""Quasi-static flux dynamics of a superconducting ring with an effective
Josephson junction, self-inductance, and a shielded ferromagnetic bias flux.

Work in reduced units (flux in quanta, current in units of the critical
current): build a ReducedParams, find flux states with find_fixed_points,
drive hysteresis loops with run_hysteresis, and invert measured remnants
or currents with fit_parameters.  SI in and out goes through RingParams / reduce /
unreduce.
"""

from .bloch_cpr import (
    FreeEnergyModel,
    current,
    finite_difference_current_error,
    free_energy,
    fundamental_harmonic,
    reduced_cpr,
    validate_symmetries,
)
from .fit import (
    FitBounds,
    FitResult,
    Observation,
    ObservationKind,
    fit_parameters,
    simulate_observables,
)
from .fixed_points import (
    FixedPoint,
    NumericsError,
    Stability,
    classify_stability,
    find_fixed_points,
    residual,
    residual_derivative,
)
from .ring_model import (
    FLUX_QUANTUM,
    ReducedParams,
    RingParams,
    reduce,
    unreduce,
)
from .sweep import (
    BranchState,
    HysteresisLoop,
    JumpEvent,
    RemnantReport,
    SweepSchedule,
    SweepTrajectory,
    continue_branch,
    loop_area,
    remnant_report,
    resolve_jump,
    run_hysteresis,
    run_schedule,
)
from .wide_ring import currents_at, remnant_field

__version__ = "0.1.0"
