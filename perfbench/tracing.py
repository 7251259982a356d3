"""Spans and counts at the layer boundaries, for the traced run.

The tracer replaces public names where their callers look them up (a
module attribute read at call time) with wrappers that time each call and
record which wrapped call was running when it started.  Spans are
aggregated as they close, keyed by (phase, name, parent name): call count,
total time and self time (the span minus its children).  The aggregate is
kept in memory and written out when the run ends.  A name that no longer
exists is recorded as absent instead of raising.

The traced run has two phases: "workload", the workload's own operations,
and "probe", one in-process pass of the CLI command set, which reaches
every layer.  Each per-layer metric comes from the workload phase when the
workload reaches that layer and from the probe phase otherwise.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

FFP = "fixed_points.find_fixed_points"
LOOPS = tuple(f"sweep.run_hysteresis.{c}" for c in ("coarse", "medium", "fine"))
RUN_SCHEDULE = "sweep.run_schedule"
FIT = "fit.fit_parameters"
OBJECTIVE = "fit.simulate_observables"


def _loop_name(args, kwargs) -> str:
    step = kwargs["step"] if "step" in kwargs else args[2]
    cls = "coarse" if step >= 0.03 else "medium" if step >= 0.005 else "fine"
    return f"sweep.run_hysteresis.{cls}"


def _csv_path(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[1] if len(args) > 1 else None


def _stdout_pos(args, kwargs) -> int:
    return sys.stdout.tell() if hasattr(sys.stdout, "tell") else 0


class Tracer:
    def __init__(self) -> None:
        self.phase = "workload"
        self.stats: dict[tuple, list] = {}
        self.counts: dict[tuple, float] = defaultdict(float)
        self.ops: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    # -- installation -----------------------------------------------------
    def _replace(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._installed.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def span(self, module, attr: str, name, after=None, before=None) -> None:
        """Time every call of module.attr.  `name` is a string or a function
        of the call's arguments; after(args, kwargs, result, before_value)
        adds counts."""
        stack, stats = self._stack, self.stats

        def make(fn):
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                mark = before(args, kwargs) if before else None
                frame = [label, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    parent = stack[-1][0] if stack else None
                    if stack:
                        stack[-1][1] += dt
                    st = stats.setdefault((self.phase, label, parent), [0, 0.0, 0.0])
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[1]
                if after:
                    after(args, kwargs, result, mark)
                return result
            return wrapper
        self._replace(module, attr, make)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of module.attr without timing them."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[(self.phase, name)] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._replace(module, attr, make)

    def add(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def install(self) -> None:
        import ringflux
        from ringflux import cli, fit, fixed_points, sweep

        def roots(a, k, result, _):
            self.add("roots", len(result))

        def samples(a, k, result, _):
            self.add("samples", len(result.samples))

        def unrefined(a, k, result, _):
            self.add("unrefined_folds", 0 if result.fold_refined else 1)

        def iterations(a, k, result, _):
            self.add("nm_iterations", result.iterations)

        def csv_bytes(a, k, result, pos):
            path = _csv_path(a, k)
            written = os.path.getsize(path) if path else _stdout_pos(a, k) - pos
            self.add("csv_bytes", written)

        for module in (ringflux, fixed_points, sweep):
            self.span(module, "find_fixed_points", FFP, after=roots)
        self.count(fixed_points, "residual", "residual")
        for attr in ("continue_branch", "resolve_jump", "loop_area"):
            self.span(sweep, attr, f"sweep.{attr}")
        self.span(sweep, "refine_fold", "sweep.refine_fold", after=unrefined)
        for module in (sweep, fit):
            self.span(module, "run_schedule", RUN_SCHEDULE, after=samples)
        for module in (ringflux, sweep, fit):
            self.span(module, "run_hysteresis", _loop_name)
        for module in (ringflux, fit):
            self.span(module, "fit_parameters", FIT, after=iterations)
        self.span(fit, "simulate_observables", OBJECTIVE)
        self.span(fit, "minimize", "fit.minimize")
        self.span(cli, "main", "cli.main")
        self.span(cli, "emit_csv", "cli.emit_csv", after=csv_bytes, before=_stdout_pos)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "ops": dict(self.ops),
            "counts": {f"{p}/{n}": v for (p, n), v in sorted(self.counts.items())},
            "spans": [{"phase": p, "name": n, "parent": par, "calls": s[0],
                       "total_s": s[1], "self_s": s[2]}
                      for (p, n, par), s in sorted(self.stats.items(), key=str)],
        }


class PhaseView:
    def __init__(self, tracer: Tracer, phase: str) -> None:
        self.t = tracer
        self.phase = phase
        self.ops = tracer.ops.get(phase, 0)

    def _sum(self, names, field: int, parent) -> float:
        return sum(s[field] for (p, n, par), s in self.t.stats.items()
                   if p == self.phase and n in names and (parent is None or par == parent))

    def calls(self, *names: str, parent: str | None = None) -> float:
        return self._sum(names, 0, parent)

    def total(self, *names: str, parent: str | None = None) -> float:
        return self._sum(names, 1, parent)

    def self_time(self, *names: str) -> float:
        return self._sum(names, 2, None)

    def count(self, name: str) -> float:
        return self.t.counts.get((self.phase, name), 0.0)


def _ratio(num: float, den: float):
    return num / den if den else None


#: name -> (unit, value from one phase, or None where the phase has no data)
PER_LAYER = {
    "fixed_points.calls": ("count", lambda v: _ratio(v.calls(FFP), v.ops)),
    "fixed_points.us_per_call": ("us", lambda v: _ratio(1e6 * v.total(FFP), v.calls(FFP))),
    "fixed_points.residual_evals_per_call": (
        "count", lambda v: _ratio(v.count("residual"), v.calls(FFP))),
    "fixed_points.roots_per_call": ("count", lambda v: _ratio(v.count("roots"), v.calls(FFP))),
    **{f"sweep.loop_ms_{name.rsplit('.', 1)[1]}": (
        "ms", lambda v, n=name: _ratio(1e3 * v.total(n), v.calls(n))) for name in LOOPS},
    "sweep.continue_branch.calls_per_loop": (
        "count", lambda v: _ratio(v.calls("sweep.continue_branch"), v.calls(RUN_SCHEDULE))),
    "sweep.continue_branch.us_per_call": (
        "us", lambda v: _ratio(1e6 * v.total("sweep.continue_branch"),
                               v.calls("sweep.continue_branch"))),
    "sweep.run_schedule.self_ms_per_loop": (
        "ms", lambda v: _ratio(1e3 * v.self_time(RUN_SCHEDULE), v.calls(RUN_SCHEDULE))),
    "sweep.folds_per_loop": (
        "count", lambda v: _ratio(v.calls("sweep.refine_fold"), v.calls(RUN_SCHEDULE))),
    "sweep.refine_fold.us_per_call": (
        "us", lambda v: _ratio(1e6 * v.total("sweep.refine_fold"), v.calls("sweep.refine_fold"))),
    "sweep.resolve_jump.us_per_call": (
        "us", lambda v: _ratio(1e6 * v.self_time("sweep.resolve_jump"),
                               v.calls("sweep.resolve_jump"))),
    "sweep.unrefined_folds": (
        "count", lambda v: _ratio(v.count("unrefined_folds"), v.calls(RUN_SCHEDULE))),
    "sweep.loop_area.ms_per_call": (
        "ms", lambda v: _ratio(1e3 * v.total("sweep.loop_area"), v.calls("sweep.loop_area"))),
    "sweep.samples_per_loop": ("count", lambda v: _ratio(v.count("samples"), v.calls(RUN_SCHEDULE))),
    "fit.objective_evals_per_fit": ("count", lambda v: _ratio(v.calls(OBJECTIVE), v.calls(FIT))),
    "fit.hysteresis_runs_per_fit": (
        "count", lambda v: _ratio(v.calls(*LOOPS, parent=OBJECTIVE), v.calls(FIT))),
    "fit.nm_iterations_per_fit": ("count", lambda v: _ratio(v.count("nm_iterations"), v.calls(FIT))),
    "fit.ms_per_objective_eval": (
        "ms", lambda v: _ratio(1e3 * v.total(OBJECTIVE), v.calls(OBJECTIVE))),
    "fit.minimize.self_ms_per_fit": (
        "ms", lambda v: _ratio(1e3 * v.self_time("fit.minimize"), v.calls(FIT))),
    "fit.flat_probe_ms_per_fit": (
        "ms", lambda v: _ratio(1e3 * v.total(OBJECTIVE, parent=FIT), v.calls(FIT))),
    "cli.main_ms": ("ms", lambda v: _ratio(1e3 * v.total("cli.main"), v.calls("cli.main"))),
    "cli.emit_csv_ms": (
        "ms", lambda v: _ratio(1e3 * v.total("cli.emit_csv"), v.calls("cli.emit_csv"))),
    "cli.csv_bytes": ("bytes", lambda v: _ratio(v.count("csv_bytes"), v.calls("cli.emit_csv"))),
}

#: measured in fresh interpreters; see import_metrics
IMPORT_METRICS = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms",
                  "ring_model.import_ms": "ms", "fit.import_ms": "ms"}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer values, and for each the phase it came from."""
    own, probe = PhaseView(tracer, "workload"), PhaseView(tracer, "probe")
    values, source = {}, {}
    for name, (unit, fn) in PER_LAYER.items():
        value, where = fn(own), "workload"
        if value is None:
            value, where = fn(probe), "probe"
        if value is None:
            value, where = 0.0, "absent"
        values[name] = {"value": value, "unit": unit}
        source[name] = where
    return values, source


def _wall_ms(argv, env) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    return (time.perf_counter() - t0) * 1e3, proc.stderr


def import_metrics(env: dict, repeats: int = 5) -> dict:
    """Interpreter floor and import costs, medians over fresh interpreters.

    cli.interpreter_ms is the wall time of `python -c pass`; the others come
    from `python -X importtime -c "import ringflux.cli"`: cli.import_ms is
    the cumulative time of the top-level ringflux imports, ring_model.import_ms
    that of scipy.constants and fit.import_ms that of scipy.optimize (0 when
    the module is no longer imported).
    """
    floor = [_wall_ms([sys.executable, "-c", "pass"], env)[0] for _ in range(repeats)]
    found: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        _, err = _wall_ms([sys.executable, "-X", "importtime", "-c", "import ringflux.cli"], env)
        totals = defaultdict(float)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                cumulative = float(parts[1]) / 1e3
            except ValueError:
                continue  # the header line
            module = parts[2].strip()
            top_level = len(parts[2]) - len(parts[2].lstrip()) == 1
            if top_level and module.split(".")[0] == "ringflux":
                totals["cli.import_ms"] += cumulative
            elif module == "scipy.constants":
                totals["ring_model.import_ms"] += cumulative
            elif module == "scipy.optimize":
                totals["fit.import_ms"] += cumulative
        for key in ("cli.import_ms", "ring_model.import_ms", "fit.import_ms"):
            found[key].append(totals[key])
    values = {"cli.interpreter_ms": statistics.median(floor)}
    values.update({k: statistics.median(v) for k, v in found.items()})
    return {k: {"value": v, "unit": IMPORT_METRICS[k]} for k, v in values.items()}
