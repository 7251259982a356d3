"""ringflux benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload roots --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ringflux is imported from its src
directory.  Workloads: roots, loops, fit, cli (see perfbench/README.md).
With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Either way the full record (diagnostics, per-layer sources, the aggregated
spans) is written to .perfbench_runs/.  The exit code is 0 when a result is
printed and nonzero when the benchmark could not run.

Each workload runs in a fresh interpreter, one process at a time, all on
one CPU.  Set-up
time (interpreter start, imports, input build, warm-up) is timed here, up
to the worker's READY line, for the worker and for SETUP_PROBES extra
interpreters that stop after set-up; setup_s is their median.  Every time
is scaled to the reference host speed (see calibration.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibration import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roots", "loops", "fit", "cli")
SETUP_PROBES = 4
#: calibration kernel runs before each worker start
KERNEL_RUNS = 5
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args, mode: str, work: Path, speed: SpeedLog) -> tuple[float, str]:
    """Start a worker; return its set-up time, scaled by the host speed
    measured just before, and everything it printed after READY."""
    for _ in range(KERNEL_RUNS):
        speed.sample()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--mode", mode, "--work", str(work)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=workloads.cli_env(ROOT), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}")
    return setup_s * speed.scale(t0, t0 + setup_s), rest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ringflux" / "__init__.py").is_file():
        print(f"error: no ringflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one CPU for this process and every child, so the calibration kernel
    # measures the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench_runs"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli" or args.trace:
            workloads.write_cli_inputs(args.seed, work)
        speed = SpeedLog()
        setups = []
        if not args.trace:
            setups = [_spawn(args, "setup", work, speed)[0] for _ in range(SETUP_PROBES)]
        setup_s, rest = _spawn(args, "run", work, speed)
        setups.append(setup_s)
        record = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
