"""The library names the benchmark's traced run wraps all still exist, but
for four that the library dropped on purpose.

perfbench/tracing.py records a vanished name as absent instead of raising,
so a removal or rename would silently zero its per-layer metrics.  The
four it reports absent fed metrics that read 0.0 before they went: no
sweep scans every root, so it keeps no `sweep.find_fixed_points` alias of
the scan (the tracer still wraps it in `fixed_points`); no sweep calls the
`sweep.refine_fold` alias of `resolve_jump`; and no fit runs a loop, so
`fit` needs neither `run_schedule` nor `run_hysteresis`.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_name_resolves():
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.absent == ["ringflux.sweep.find_fixed_points", "ringflux.sweep.refine_fold",
                                 "ringflux.fit.run_schedule", "ringflux.fit.run_hysteresis"]
    finally:
        tracer.uninstall()
