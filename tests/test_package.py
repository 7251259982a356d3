"""The package namespace: every name `ringflux` has always exported
resolves to its home module's object, though `import ringflux` loads no
submodule until a name is read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringflux

#: the names `ringflux` exports, by home module, written out independently
#: of the package's own table
EXPORTED = {
    "bloch_cpr": ["FreeEnergyModel", "current", "finite_difference_current_error",
                  "free_energy", "fundamental_harmonic", "reduced_cpr", "validate_symmetries"],
    "fit": ["FitBounds", "FitResult", "Observation", "ObservationKind", "fit_parameters",
            "simulate_observables"],
    "fixed_points": ["FixedPoint", "NumericsError", "Stability", "classify_stability",
                     "find_fixed_points", "residual", "residual_derivative"],
    "ring_model": ["FLUX_QUANTUM", "ReducedParams", "RingParams", "reduce", "unreduce"],
    "sweep": ["BranchState", "HysteresisLoop", "JumpEvent", "RemnantReport", "SweepSchedule",
              "SweepTrajectory", "continue_branch", "loop_area", "remnant_report",
              "resolve_jump", "run_hysteresis", "run_schedule"],
    "wide_ring": ["currents_at", "remnant_field"],
}
NAMES = [(home, name) for home, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("home, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"ringflux.{home}")
    assert getattr(ringflux, name) is getattr(module, name)
    assert vars(ringflux)[name] is getattr(module, name)  # bound on first access


def test_dir_and_star_import_list_every_name():
    names = {name for _, name in NAMES}
    assert names <= set(dir(ringflux))
    assert sorted(ringflux.__all__) == sorted(names)
    namespace = {}
    exec("from ringflux import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == names
    assert all(namespace[name] is getattr(ringflux, name) for name in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ringflux.no_such_name
    assert not hasattr(ringflux, "cli_main")
    assert ringflux.__version__ == "0.1.0"


def test_submodules_still_import_from_the_package():
    # in a fresh process, where no submodule is loaded yet
    probe = ("import sys, ringflux; from ringflux import sweep; import ringflux.fit; "
             "print(sweep is sys.modules['ringflux.sweep'], "
             "ringflux.fit is sys.modules['ringflux.fit'], sweep.MAX_SUBSTEPS)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["True", "True", "5000000"]
