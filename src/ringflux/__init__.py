"""Quasi-static flux dynamics of a superconducting ring with an effective
Josephson junction, self-inductance, and a shielded ferromagnetic bias flux.

Work in reduced units (flux in quanta, current in units of the critical
current): build a ReducedParams, find flux states with find_fixed_points,
drive hysteresis loops with run_hysteresis, and invert measured remnants
or currents with fit_parameters.  SI in and out goes through RingParams / reduce /
unreduce.

`import ringflux` loads no submodule.  Each name below is imported from its
home module on first access (PEP 562) and bound here, so later reads are
plain attribute lookups.  A submodule is imported as usual
(`from ringflux import sweep`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bloch_cpr": ("FreeEnergyModel", "current", "finite_difference_current_error",
                  "free_energy", "fundamental_harmonic", "reduced_cpr", "validate_symmetries"),
    "fit": ("FitBounds", "FitResult", "Observation", "ObservationKind", "fit_parameters",
            "simulate_observables"),
    "fixed_points": ("FixedPoint", "NumericsError", "Stability", "classify_stability",
                     "find_fixed_points", "residual", "residual_derivative"),
    "ring_model": ("FLUX_QUANTUM", "ReducedParams", "RingParams", "reduce", "unreduce"),
    "sweep": ("BranchState", "HysteresisLoop", "JumpEvent", "RemnantReport", "SweepSchedule",
              "SweepTrajectory", "continue_branch", "loop_area", "remnant_report",
              "resolve_jump", "run_hysteresis", "run_schedule"),
    "wide_ring": ("currents_at", "remnant_field"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
