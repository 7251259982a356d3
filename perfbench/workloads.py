"""Inputs, operations and correctness checks of the four workloads.

Every workload draws a pool of inputs from the run's seed and runs it in
whole rounds: each round performs the same operations in the same order,
so the share of failed operations is fixed by the pool, whatever the seed
and however long the run.  Draws are stratified (draw j lies in stratum j
of each range) so that every seed gives a pool of the same make-up and
the run-to-run spread comes from the host, not from the luck of the draw.

Inputs that reproduce a known fault of the program are fixed constants,
independent of the seed; they fail in every round and are counted as
failed.  Any other failure makes the run incorrect.

The operations use only the stable public surface of ringflux:
ReducedParams, RingParams, find_fixed_points, run_hysteresis,
remnant_report, SweepSchedule, simulate_observables, Observation,
ObservationKind, FitBounds and fit_parameters; the CLI is run as
`python -m ringflux.cli`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from calibration import SpeedLog

#: Operations timed together in one batch by the roots workload; a single
#: root solve takes 0.05-2 ms, too short to time one by one.
ROOTS_BATCH = 8


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw inside each of n equal strata of [lo, hi], ascending."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


class Recorder:
    """Counts and latencies of the timed phase.

    Each timed piece of work is bracketed by start() and done() or fail();
    start() runs the calibration kernel when none ran for a while.
    finish() takes the kernel's runs out of every piece and scales it by the
    host speed measured around it.
    """

    def __init__(self) -> None:
        self.speed = SpeedLog()
        self.pieces: list[tuple[float, float, int, bool]] = []  # t0, t1, ops, latency
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def start(self) -> float:
        self.speed.tick()
        return time.perf_counter()

    def done(self, t0: float, n: int = 1, latency: bool = True) -> None:
        self.pieces.append((t0, time.perf_counter(), n, latency))
        self.samples += latency
        self.attempted += n

    def fail(self, t0: float, expected: bool, what: str) -> None:
        self.pieces.append((t0, time.perf_counter(), 1, False))
        self.attempted += 1
        self.failed += 1
        if not expected and len(self.unexpected) < 20:
            self.unexpected.append(what)

    def finish(self) -> dict:
        """Work time and per-operation latencies, raw and scaled."""
        self.speed.sample()
        raw_s = scaled_s = 0.0
        raw_ms, scaled_ms = [], []
        for t0, t1, n, latency in self.pieces:
            dt = t1 - t0 - self.speed.inside(t0, t1)
            k = self.speed.scale(t0, t1)
            raw_s += dt
            scaled_s += dt * k
            if latency:
                raw_ms.append(dt / n * 1e3)
                scaled_ms.append(dt / n * k * 1e3)
        return {"raw_work_s": raw_s, "work_s": scaled_s, "raw_latencies_ms": raw_ms,
                "latencies_ms": scaled_ms, "kernel_ms": self.speed.kernel}


# ---------------------------------------------------------------------------
# roots: find_fixed_points on seeded draws
# ---------------------------------------------------------------------------

class Roots:
    """find_fixed_points over beta in [1.05, 100] (log-stratified), drives
    c = phi_ext + phi_fe in [-8, 8] and phi_fe in [-0.5, 0.5], sorted by
    beta so that each batch holds draws of similar cost."""

    #: 33 batches: the median and the 99th percentile fall inside one
    #: batch's block of samples, not on the boundary between two.
    N = 264
    #: |phi_ext| in [1e4, 1e6]: the absolute |g| <= 1e-12 acceptance cannot
    #: be met there, so these raise NumericsError (a known fault).
    FAULTS = ((1.2345e4, 5.0, 0.2), (-3.7e4, 2.5, -0.1),
              (2.6e5, 12.0, 0.3), (-8.1e5, 40.0, 0.0))

    def __init__(self, rf, seed: int) -> None:
        self.rf = rf
        rng = np.random.default_rng([seed, 1])
        betas = np.exp(_strata(rng, self.N, math.log(1.05), math.log(100.0)))
        fes = rng.uniform(-0.5, 0.5, self.N)
        # the drive c = phi_ext + phi_fe: a random period in [-8, 8) plus a
        # fractional part stratified within each batch, so that every batch
        # meets the same spread of root counts
        frac = (np.arange(self.N) % ROOTS_BATCH + rng.random(self.N)) / ROOTS_BATCH
        exts = rng.integers(-8, 8, self.N) + frac - fes
        self.draws = [(float(x), rf.ReducedParams(float(b), float(f)))
                      for b, x, f in zip(betas, exts, fes)]
        self.batches = [self.draws[i:i + ROOTS_BATCH]
                        for i in range(0, self.N, ROOTS_BATCH)]
        self.faults = [(x, rf.ReducedParams(b, f)) for x, b, f in self.FAULTS]
        self.outputs: list = [None] * self.N

    def warm_up(self) -> None:
        for x, p in self.draws[::16]:
            self.rf.find_fixed_points(x, p)

    def run_round(self, rec: Recorder) -> None:
        rf = self.rf
        k = 0
        for batch in self.batches:
            t0 = rec.start()
            outs = [rf.find_fixed_points(x, p) for x, p in batch]
            rec.done(t0, len(batch))
            self.outputs[k:k + len(outs)] = outs
            k += len(outs)
        for x, p in self.faults:
            t0 = rec.start()
            try:
                rf.find_fixed_points(x, p)
            except rf.NumericsError:
                rec.fail(t0, True, f"find_fixed_points({x}, beta={p.beta})")
            else:
                rec.done(t0, latency=False)

    def check(self) -> list[str]:
        """Every 8th draw: residual and stability against the oracle, the
        dense-scan root set, and the shift phi_ext -> phi_ext + 1."""
        errors = []
        for j in range(0, self.N, 8):
            x, p = self.draws[j]
            roots = self.outputs[j]
            c = x + p.phi_fe
            phis = np.array([r.phi for r in roots])
            g = np.abs(oracle.residual(phis, c, p.beta))
            if g.max() > 1e-12:
                errors.append(f"roots {j}: |g| = {g.max():.2e}")
            s = oracle.slope(phis, p.beta)
            want = np.where(s > 1e-9, "stable", np.where(s < -1e-9, "unstable", "marginal"))
            if [r.stability.value for r in roots] != list(want):
                errors.append(f"roots {j}: stability classes disagree with the slope sign")
            scan = oracle.scan_roots(c, p.beta)
            if len(scan) != len(roots) or np.abs(phis - scan).max() > 1e-9:
                errors.append(f"roots {j}: {len(roots)} roots, dense scan finds {len(scan)}")
            shifted = np.array([r.phi for r in self.rf.find_fixed_points(x + 1.0, p)])
            if len(shifted) != len(phis) or np.abs(shifted - phis - 1.0).max() > 1e-9:
                errors.append(f"roots {j}: shifting phi_ext by 1 does not shift the roots by 1")
        return errors


# ---------------------------------------------------------------------------
# loops: run_hysteresis + remnant_report, every sample consumed
# ---------------------------------------------------------------------------

class Loops:
    """run_hysteresis and remnant_report over beta in [1.2, 20], amplitude
    in [1, 5] and phi_fe in [-0.5, 0.5] (0 for every fourth draw), at
    coarse (0.05), medium (0.01) and fine (0.001-0.002) steps.

    Within each step class draw j takes stratum j of beta and amplitude;
    fine draws take the same point of the step stratum as of the amplitude
    one, so the costliest loops are the same kind in every seed.  151 draws
    put the median and the 99th percentile inside one loop's block of
    samples.  Below beta ~1.1 the trapezoidal loop area can take the wrong
    sign; that fault is kept as a fixed draw instead.
    """

    CLASSES = (("coarse", 115), ("medium", 30), ("fine", 6))
    #: (beta, amplitude, step, phi_fe, fault)
    FAULTS = ((1.0 + 1e-12, 2.0, 0.01, 0.0, "no stable root survives the fold"),
              (1.01, 2.0, 0.01, 0.0, "loop_area has the wrong sign"))
    RING = dict(L=1e-10, I_J=1e-5, area_A=1e-6)

    def __init__(self, rf, seed: int) -> None:
        self.rf = rf
        self.seed = seed
        self.ring = rf.RingParams(**self.RING)
        rng = np.random.default_rng([seed, 2])
        self.draws = []
        for cls, n in self.CLASSES:
            betas = _strata(rng, n, 1.2, 20.0)
            x = (np.arange(n) + rng.random(n)) / n
            amps = 1.0 + 4.0 * x
            if cls == "fine":
                steps = 0.001 + 0.001 * x
            else:
                steps = np.full(n, 0.05 if cls == "coarse" else 0.01)
            fes = rng.uniform(-0.5, 0.5, n)
            fes[::4] = 0.0
            for b, a, s, f in zip(betas, amps, steps, fes):
                self.draws.append((rf.ReducedParams(float(b), float(f)), float(a), float(s)))
        self.faults = [(rf.ReducedParams(b, f), a, s, why) for b, a, s, f, why in self.FAULTS]
        self.digests: list = [None] * len(self.draws)

    def _op(self, p, amplitude: float, step: float):
        rf = self.rf
        loop = rf.run_hysteresis(p, amplitude, step)
        report = rf.remnant_report(loop, self.ring)
        total = 0.0
        for s in loop.cycle.samples:
            total += s.phi_ext + s.phi + s.i
        jumps = len(loop.cycle.events)
        ok = loop.loop_area > 0.0 if jumps else abs(loop.loop_area) <= 1e-9
        return ok, (report.phi_down, report.phi_up, report.n_down, report.n_up,
                    loop.loop_area, len(loop.cycle.samples), jumps, total)

    def warm_up(self) -> None:
        for p, a, s in self.draws[:2]:
            self._op(p, a, s)

    def run_round(self, rec: Recorder) -> None:
        for j, (p, a, s) in enumerate(self.draws):
            t0 = rec.start()
            ok, digest = self._op(p, a, s)
            if ok:
                rec.done(t0)
            else:
                rec.fail(t0, False, f"loop beta={p.beta} A={a} step={s}: area {digest[4]}")
            self.digests[j] = digest
        for p, a, s, why in self.faults:
            t0 = rec.start()
            try:
                ok = self._op(p, a, s)[0]
            except self.rf.NumericsError:
                ok = False
            if ok:
                rec.done(t0, latency=False)
            else:
                rec.fail(t0, True, why)

    def check(self) -> list[str]:
        """All loops: remnant antisymmetry at phi_fe = 0.  A seeded subset,
        re-run: same digest, every sample a stable root by the oracle, and
        remnants equal to the brute-force sweep's."""
        errors = []
        for j, ((p, a, s), d) in enumerate(zip(self.draws, self.digests)):
            if p.phi_fe == 0.0 and abs(d[0] + d[1]) > 1e-12:
                errors.append(f"loop {j}: remnants {d[0]}, {d[1]} are not antisymmetric")
        rng = np.random.default_rng([self.seed, 3])
        n_coarse, n_medium, _ = (n for _, n in self.CLASSES)
        subset = [int(rng.integers(0, n_coarse)), int(rng.integers(0, n_coarse)),
                  n_coarse + int(rng.integers(0, n_medium)), len(self.draws) - 1]
        for j in subset:
            p, a, s = self.draws[j]
            loop = self.rf.run_hysteresis(p, a, s)
            if self._op(p, a, s)[1] != self.digests[j]:
                errors.append(f"loop {j}: re-run differs from the timed run")
            phi = np.array([t.phi for t in loop.cycle.samples])
            ext = np.array([t.phi_ext for t in loop.cycle.samples])
            g = np.abs(oracle.residual(phi, ext + p.phi_fe, p.beta))
            if g.max() > 1e-12:
                errors.append(f"loop {j}: sample residual {g.max():.2e}")
            if oracle.slope(phi, p.beta).min() < -1e-9:
                errors.append(f"loop {j}: a sample sits on an unstable root")
            down, up = oracle.sweep_remnants(p.beta, p.phi_fe, a)
            if abs(down - loop.remnant_down) > 1e-9 or abs(up - loop.remnant_up) > 1e-9:
                errors.append(f"loop {j}: remnants ({loop.remnant_down}, {loop.remnant_up}),"
                              f" brute-force sweep ({down}, {up})")
        return errors


# ---------------------------------------------------------------------------
# fit: fit_parameters started off-truth
# ---------------------------------------------------------------------------

FIT_AMPLITUDES = (2.0, -2.0, 3.0, -3.0, 4.0, -4.0)
FIT_CURRENT_WAYPOINTS = (0.35, 1.2, 0.6, -0.45, -1.3, -0.5, 0.25, 0.8)


def fit_start(beta: float, phi_fe: float) -> tuple[float, float]:
    """Off-truth start: beta - 0.3, phi_fe moved 0.03 toward zero.

    From 0.6 and 0.06 off, the first simplex stalls for truths near
    (9.5, -0.3) and the fit runs its restarts, 190 iterations instead of
    80 (3 of 60 truths), which made fit times depend on the seed."""
    return beta - 0.3, phi_fe - math.copysign(0.03, phi_fe)


class Fit:
    """Per round, five fits started off-truth: three remnant fits at
    amplitudes +-2, +-3, +-4 on data simulate_observables makes from seeded
    truths, and two fixed fits.  The seeded truths lie in three cells,
    beta 6, 8.5 and 11 (+-0.5, above the 4.6033 trapping threshold, so
    remnants identify both parameters) with phi_fe 0.3, -0.3 and 0.15
    (+-0.1): a fit's cost grows with beta, and the median fit of a round,
    which op_p50_ms reports, must be the same kind of fit on every seed.
    (Near beta 11, phi_fe 0 a fit takes 84-124 iterations, against 74-84
    near phi_fe 0.15.)

    The fixed remnant fit adds amplitude +-5, which makes it about 1.5x the
    cost of any seeded one, so the slowest fit of a run, which op_p99_ms
    reports here, is the same fit on every seed.  The current fit's truth is
    fixed because on seeded truths a current fit now and then raises
    NumericsError (a fold-level rounding fault) or settles off the truth,
    which would make the failed share depend on the seed."""

    #: (beta, phi_fe) centres of the seeded truths
    CELLS = ((6.0, 0.3), (8.5, -0.3), (11.0, 0.15))
    #: (kind, truth, keys); five fits a round put the median on one fit
    FIXED = (("remnant", (11.0, -0.25), FIT_AMPLITUDES + (5.0, -5.0)),
             ("current", (8.0, -0.2), FIT_CURRENT_WAYPOINTS))

    def __init__(self, rf, seed: int) -> None:
        self.rf = rf
        rng = np.random.default_rng([seed, 4])
        specs = [("remnant", (b + rng.uniform(-0.5, 0.5), f + rng.uniform(-0.1, 0.1)),
                  FIT_AMPLITUDES) for b, f in self.CELLS]
        self.cases = []
        for kind_name, (b, f), keys in specs + list(self.FIXED):
            kind = (rf.ObservationKind.CURRENT if kind_name == "current"
                    else rf.ObservationKind.REMNANT_FLUX)
            truth = rf.ReducedParams(b, f)
            values = rf.simulate_observables(truth, rf.SweepSchedule(keys, 0.05), kind)
            data = [rf.Observation(k, v, kind) for k, v in zip(keys, values)]
            self.cases.append((truth, data, rf.ReducedParams(*fit_start(b, f))))
        self.bounds = rf.FitBounds(1.5, 15.0, -0.5, 0.5)
        self.results: list = [None] * len(self.cases)

    def warm_up(self) -> None:
        pass  # building the data ran every forward path once

    def run_round(self, rec: Recorder) -> None:
        for j, (truth, data, start) in enumerate(self.cases):
            t0 = rec.start()
            res = self.rf.fit_parameters(data, start, self.bounds)
            rec.done(t0)
            self.results[j] = (res.params.beta, res.params.phi_fe, res.iterations)

    def check(self) -> list[str]:
        errors = []
        for (truth, _, _), (beta, phi_fe, _) in zip(self.cases, self.results):
            if abs(beta - truth.beta) > 1e-2 or abs(phi_fe - truth.phi_fe) > 1e-2:
                errors.append(f"fit of ({truth.beta}, {truth.phi_fe}) gave ({beta}, {phi_fe})")
        return errors


# ---------------------------------------------------------------------------
# cli: sequential `python -m ringflux.cli` invocations
# ---------------------------------------------------------------------------

CLI_PHI0 = 2.07e-15
CLI_BLOCH_COEFFS = "3.2e-22,0,1e-23"
CLI_FIT_AMPLITUDES = (2.0, -2.0, 3.0, -3.0)


#: the cli fit's truth is fixed: the fit is the slowest invocation, which
#: op_p99_ms reports on this workload, and its cost varies with the truth
CLI_FIT_TRUTH = (6.5, 0.2)


def cli_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    return {
        "sweep": (float(rng.uniform(2.0, 12.0)), float(rng.uniform(-0.5, 0.5)),
                  float(rng.uniform(2.0, 4.0))),
        "fine_amplitude": float(rng.uniform(2.9, 3.3)),
        "fixed_points": (float(rng.uniform(5.0, 60.0)), float(rng.uniform(-5.0, 5.0))),
        "fit": CLI_FIT_TRUTH,
        "wide_ring_n": int(rng.integers(1, 5)),
    }


def write_cli_inputs(seed: int, work: Path) -> None:
    """The observation CSV of the cli fit, from the oracle's sweep."""
    beta, fe = cli_config(seed)["fit"]
    rows = ["phi_ext,observable"]
    for a in CLI_FIT_AMPLITUDES[::2]:
        down, up = oracle.sweep_remnants(beta, fe, a)
        rows += [f"{a!r},{down!r}", f"{-a!r},{up!r}"]
    (work / "observations.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def cli_commands(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    cfg = cli_config(seed)
    b, f, a = (repr(v) for v in cfg["sweep"])
    fb, fx = (repr(v) for v in cfg["fixed_points"])
    tb, tf = cfg["fit"]
    sb, sf = fit_start(tb, tf)
    sweep = ["sweep", "--beta", b, "--phi_fe", f, "--amplitude", a]
    return [
        ("sweep_coarse", sweep + ["--step", "0.05"]),
        ("sweep_medium", sweep + ["--step", "0.01"]),
        ("sweep_fine", ["sweep", "--beta", b, "--phi_fe", f,
                        "--amplitude", repr(cfg["fine_amplitude"]), "--step", "0.001",
                        "--out", str(work / "fine.csv")]),
        ("fixed_points", ["fixed-points", "--beta", fb, "--phi_ext", fx]),
        ("fit", ["fit", "--data", str(work / "observations.csv"), "--beta", repr(sb),
                 "--phi_fe", repr(sf), "--beta_min", "1.5", "--beta_max", "15"]),
        ("wide_ring", ["wide-ring", "--n", str(cfg["wide_ring_n"]), "--L", "1e-10",
                       "--Phi0", repr(CLI_PHI0)]),
        ("bloch_check", ["bloch-check", "--coeffs", CLI_BLOCH_COEFFS]),
    ]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main in this process, stdout captured (the traced runs)."""
    from ringflux import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Cli:
    """Sequential subprocess invocations of the CLI, one child at a time;
    the traced run calls cli.main in process instead."""

    def __init__(self, root: Path, seed: int, work: Path, in_process: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.env = cli_env(root)
        self.in_process = in_process
        self.commands = cli_commands(seed, work)
        self.outputs: dict[str, list] = {name: [] for name, _ in self.commands}

    def _invoke(self, argv: list[str]) -> tuple[int, bytes]:
        if self.in_process:
            code, text = run_cli_in_process(argv)
            out = text.encode()
        else:
            proc = subprocess.run([sys.executable, "-m", "ringflux.cli", *argv],
                                  cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, check=False)
            code, out = proc.returncode, proc.stdout
        if code == 0 and "--out" in argv:
            out += Path(argv[argv.index("--out") + 1]).read_bytes()
        return code, out

    def warm_up(self) -> None:
        self._invoke(self.commands[-1][1])

    def run_round(self, rec: Recorder) -> None:
        for name, argv in self.commands:
            t0 = rec.start()
            code, out = self._invoke(argv)
            if code == 0:
                rec.done(t0)
            else:
                rec.fail(t0, False, f"{name} exited with {code}")
            digest = hashlib.sha256(out).hexdigest()
            outs = self.outputs[name]
            if not outs:
                outs.append((code, out))
            outs.append((code, digest))

    def check(self) -> list[str]:
        errors = []
        cfg = cli_config(self.seed)
        for name, outs in self.outputs.items():
            codes = {code for code, _ in outs}
            if codes != {0}:
                errors.append(f"{name}: exit codes {sorted(codes)}")
            digests = {d for _, d in outs[1:]}
            if len(digests) != 1:
                errors.append(f"{name}: {len(digests)} different outputs for one config")
            if outs and outs[0][0] == 0:
                errors += [f"{name}: {e}" for e in check_cli_output(name, outs[0][1].decode(), cfg)]
        return errors


def check_cli_output(name: str, text: str, cfg: dict) -> list[str]:
    """Property checks of one command's output against the oracle."""
    lines = text.splitlines()
    summary = dict(line.split(" = ", 1) for line in lines if " = " in line)
    csv = [line.split(",") for line in lines if " = " not in line]
    errors = []
    if name.startswith("sweep"):
        beta, fe, _ = cfg["sweep"]
        rows = csv[1:]
        ext = np.array([float(r[0]) for r in rows])
        phi = np.array([float(r[1]) for r in rows])
        cur = np.array([float(r[2]) for r in rows])
        if np.abs(oracle.residual(phi, ext + fe, beta)).max() > 1e-12:
            errors.append("a CSV row is not a root of the flux balance")
        if np.abs(cur - np.sin(oracle.TWO_PI * phi)).max() > 1e-12:
            errors.append("a CSV current differs from sin(2*pi*phi)")
        if int(summary.get("jumps", "0")) > 0 and not float(summary.get("loop_area", "nan")) > 0.0:
            errors.append("hysteretic loop without a positive area")
    elif name == "fixed_points":
        beta, x = cfg["fixed_points"]
        phi = np.array([float(r[1]) for r in csv[1:]])
        if np.abs(oracle.residual(phi, x, beta)).max() > 1e-12:
            errors.append("a root fails the oracle residual")
        scan = oracle.scan_roots(x, beta)
        if len(scan) != len(phi) or np.abs(phi - scan).max() > 1e-9:
            errors.append(f"{len(phi)} roots, dense scan finds {len(scan)}")
    elif name == "fit":
        beta, fe = cfg["fit"]
        got = (float(summary.get("beta", "nan")), float(summary.get("phi_fe", "nan")))
        if not (abs(got[0] - beta) <= 1e-2 and abs(got[1] - fe) <= 1e-2):
            errors.append(f"fit gave {got}, truth ({beta}, {fe})")
    elif name == "wide_ring":
        n = cfg["wide_ring_n"]
        for r in csv[1:]:
            h, inner, outer = float(r[0]), float(r[1]), float(r[2])
            if (abs(inner - n * CLI_PHI0 / 1e-10) > 1e-15 * abs(inner)
                    or abs(outer + inner * h) > 1e-15 * abs(inner)):
                errors.append(f"row {r} breaks I_inner = n*Phi0/L, I_outer = -I_inner*H/Hc")
                break
    elif name == "bloch_check":
        if summary.get("passed") != "true":
            errors.append("bloch-check did not pass")
    return errors
