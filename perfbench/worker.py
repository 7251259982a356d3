"""One workload in a fresh interpreter: set-up, timed phase, checks.

Started by run.py with PYTHONPATH pointing at the checkout's src.  Prints
READY once imports, input build and warm-up are done (run.py times set-up
up to that line), and with --mode run then runs whole rounds of the
workload for at least --seconds, checks the outputs outside the timed
phase and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, import_metrics, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def build(name: str, seed: int, work: Path, traced: bool):
    if name == "cli":
        return workloads.Cli(ROOT, seed, work, in_process=traced)
    import ringflux as rf
    cls = {"roots": workloads.Roots, "loops": workloads.Loops, "fit": workloads.Fit}[name]
    return cls(rf, seed)


#: latency samples a run needs for ten beyond its 99th percentile
TAIL_SAMPLES = 1000


def run_rounds(wl, rec: workloads.Recorder, seconds: float, tail: bool) -> tuple[float, int]:
    """Whole rounds until `seconds` have passed, and at least two; with
    `tail`, also until TAIL_SAMPLES latency samples are in."""
    rounds = 0
    t0 = time.perf_counter()
    while True:
        wl.run_round(rec)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= 2 and elapsed >= seconds and (not tail or rec.samples >= TAIL_SAMPLES):
            return elapsed, rounds


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    wl = build(args.workload, args.seed, args.work, bool(args.trace))
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rec = workloads.Recorder()
    # fits last seconds, so the kernel also runs inside them; inside the
    # short operations of the other workloads it would add its cache refill
    # to their samples, and inside a CLI invocation it would share the CPU
    # with the child
    sampling = rec.speed.running() if args.workload == "fit" else contextlib.nullcontext()
    with sampling:
        elapsed, rounds = run_rounds(wl, rec, args.seconds, args.workload in ("roots", "loops"))
    if args.workload == "cli" and not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    timing = rec.finish()
    lat, raw_lat = timing["latencies_ms"], timing["raw_latencies_ms"]
    completed = rec.attempted - rec.failed
    e2e = {
        "ops_per_s": {"value": completed / timing["work_s"], "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "op_p99_ms": {"value": nearest_rank(lat, 0.99), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    kernel = timing["kernel_ms"]
    out = {"attempted": rec.attempted, "failed": rec.failed, "rounds": rounds,
           "elapsed_s": elapsed, "latency_samples": len(lat),
           "unscaled": {"ops_per_s": completed / timing["raw_work_s"],
                        "op_p50_ms": statistics.median(raw_lat),
                        "op_p99_ms": nearest_rank(raw_lat, 0.99)},
           "kernel_ms": {"runs": len(kernel), "median": statistics.median(kernel),
                         "min": min(kernel), "max": max(kernel)}}

    probe_errors: list[str] = []
    if tracer is not None:
        tracer.ops["workload"] = rec.attempted
        if args.workload != "cli":
            tracer.phase = "probe"
            probe = workloads.Cli(ROOT, args.seed, args.work, in_process=True)
            probe_rec = workloads.Recorder()
            probe.run_round(probe_rec)
            tracer.ops["probe"] = probe_rec.attempted
            probe_errors = [f"probe {e}" for e in probe_rec.unexpected]
        tracer.uninstall()
        metrics, source = layer_metrics(tracer)
        metrics.update(import_metrics(workloads.cli_env(ROOT)))
        out.update(metrics=metrics, metric_source=source, traced_end_to_end=e2e,
                   spans=tracer.dump())
    else:
        out["metrics"] = e2e

    errors = wl.check()
    errors += [f"unexpected failure: {u}" for u in rec.unexpected] + probe_errors
    out["errors"] = errors
    out["correct"] = not errors
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
