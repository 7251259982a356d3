"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance against independent
routes (brute-force scans, finite differences, byte comparison); sub-check
labels are printed so a failing criterion names exactly what broke.
"""

import math
import time

import numpy as np
import pytest

from helpers import TWO_PI, brute_force_roots, central_difference
from ringflux.bloch_cpr import FreeEnergyModel, current, free_energy, reduced_cpr
from ringflux.fit import FitBounds, Observation, fit_parameters, simulate_observables
from ringflux.fixed_points import find_fixed_points, residual
from ringflux.ring_model import (
    ELEMENTARY_CHARGE,
    FLUX_QUANTUM,
    PLANCK_H,
    ReducedParams,
    RingParams,
)
from ringflux.sweep import SweepSchedule, remnant_report, run_hysteresis, run_schedule
from ringflux import cli


def _criterion(number, name, checks):
    start_failures = [label for label, ok in checks if not ok]
    verdict = "PASS" if not start_failures else f"FAIL ({', '.join(start_failures)})"
    print(f"ACCEPTANCE {number} {name}: {verdict}")
    assert not start_failures, f"criterion {number} failed: {start_failures}"


def test_criterion_1_flux_quantum_anchor():
    computed = PLANCK_H / (2.0 * ELEMENTARY_CHARGE)
    three_sig = float(f"{computed:.3g}")
    _criterion(1, "flux quantum h/2e", [
        ("package constant is h/2e", FLUX_QUANTUM == computed),
        ("value 2.0678e-15 to 5 digits", abs(computed - 2.0678e-15) < 1e-19),
        ("3 significant figures give 2.07e-15", three_sig == 2.07e-15),
    ])


def test_criterion_2_fixed_point_oracle_equivalence():
    rng = np.random.default_rng(20120622)
    t0 = time.time()
    count_ok = match_ok = residual_ok = True
    for _ in range(200):
        beta = float(rng.uniform(1e-6, 20.0))
        if beta == 0.0:
            beta = 1e-6
        phi_ext = float(rng.uniform(-3.0, 3.0))
        p = ReducedParams(beta=beta)
        mine = find_fixed_points(phi_ext, p)
        brute = brute_force_roots(phi_ext, beta, step=1e-5)
        if len(mine) != len(brute):
            count_ok = False
            continue
        for r, b in zip(mine, brute):
            if abs(r.phi - b) > 1e-6:
                match_ok = False
            if abs(residual(r.phi, phi_ext, p)) > 1e-12:
                residual_ok = False
    elapsed = time.time() - t0
    _criterion(2, f"oracle equivalence over 200 draws ({elapsed:.1f}s)", [
        ("root counts agree", count_ok),
        ("positions match to 1e-6", match_ok),
        ("residuals below 1e-12", residual_ok),
        ("runtime under 10s", elapsed < 10.0),
    ])


def test_criterion_3_no_hysteresis_regime():
    t0 = time.time()
    checks = []
    for beta in (0.2, 0.5, 0.9):
        loop = run_hysteresis(ReducedParams(beta=beta), 2.0, 0.01)
        checks.append((f"beta={beta} loop area at zero",
                       abs(loop.loop_area) <= 1e-10))
        checks.append((f"beta={beta} remnants equal",
                       abs(loop.remnant_up - loop.remnant_down) <= 1e-10))
    checks.append(("runtime under 5s", time.time() - t0 < 5.0))
    _criterion(3, "single-state regime is history-free", checks)


def test_criterion_4_hysteresis_and_trapping():
    t0 = time.time()
    checks = []
    for beta in (3.0, 5.0, 10.0):
        loop = run_hysteresis(ReducedParams(beta=beta), 3.0, 0.01)
        report = remnant_report(loop, RingParams(L=1e-10, I_J=1e-5))
        checks.append((f"beta={beta} loop_area > 0 (got {loop.loop_area:.3f})",
                       loop.loop_area > 0.0))
        checks.append((f"beta={beta} remnant antisymmetry",
                       abs(loop.remnant_up + loop.remnant_down) <= 1e-8))
        if beta >= 5.0:
            checks.append(
                (f"beta={beta} traps a quantum (|n|>=1, got n={report.n_down})",
                 abs(report.n_down) >= 1 and abs(report.n_up) >= 1))
    checks.append(("runtime under 10s", time.time() - t0 < 10.0))
    _criterion(4, "hysteresis and flux trapping", checks)


def test_criterion_5_bias_shift_exactness():
    t0 = time.time()
    amp, fe, step = 3.0, 0.3, 0.01
    biased = run_schedule(ReducedParams(beta=5.0, phi_fe=fe),
                          SweepSchedule((0.0, amp, 0.0, -amp, 0.0), step))
    shifted = run_schedule(ReducedParams(beta=5.0),
                           SweepSchedule((fe, amp + fe, fe, -amp + fe, fe), step))
    same_length = len(biased.samples) == len(shifted.samples)
    drive_ok = flux_ok = current_ok = same_length
    if same_length:
        for sb, ss in zip(biased.samples, shifted.samples):
            drive_ok &= abs((ss.phi_ext - fe) - sb.phi_ext) <= 1e-12
            flux_ok &= abs(ss.phi - sb.phi) <= 1e-12
            current_ok &= abs(ss.i - sb.i) <= 1e-12
    # asymmetric remnants at zero drive under the bias
    loop = run_hysteresis(ReducedParams(beta=5.0, phi_fe=fe), amp, step)
    _criterion(5, "ferromagnetic bias is an exact drive translation", [
        ("sample counts equal", same_length),
        ("drive values translate to 1e-12", drive_ok),
        ("flux samples match to 1e-12", flux_ok),
        ("currents match to 1e-12", current_ok),
        ("biased loop remnants asymmetric",
         abs(loop.remnant_up + loop.remnant_down) > 0.05),
        ("runtime under 5s", time.time() - t0 < 5.0),
    ])


def test_criterion_6_wide_ring_identities():
    from ringflux.wide_ring import currents_at, remnant_field
    params = RingParams(L=2e-10, I_J=3e-5, Phi0=2.07e-15, area_A=1e-6)
    grid = np.linspace(0.0, 1.0, 11)
    checks = []
    for n in (-2, 0, 1, 3):
        inner_critical, outer_critical = currents_at(n, 1.0, params)
        checks.append((f"n={n} criticality cancellation exact",
                       inner_critical + outer_critical == 0.0))
        checks.append((f"n={n} outer current vanishes at zero field",
                       currents_at(n, 0.0, params)[1] == 0.0))
        inners = {currents_at(n, float(h), params)[0] for h in grid}
        checks.append((f"n={n} inner current constant on 11-point grid",
                       len(inners) == 1))
        checks.append((f"n={n} remnant field exact",
                       remnant_field(n, params) == n * params.Phi0 / params.area_A))
    _criterion(6, "wide-ring current identities", checks)


def test_criterion_7_bloch_cpr_checks():
    t0 = time.time()
    rng = np.random.default_rng(54)
    model = FreeEnergyModel(tuple(float(c) for c in rng.uniform(-1e-21, 1e-21, 4)),
                            FLUX_QUANTUM)
    # independent finite-difference route over two periods
    grid = [float(Phi) for Phi in np.linspace(-FLUX_QUANTUM, FLUX_QUANTUM, 257)]
    h = 1e-6 * FLUX_QUANTUM
    I = [current(model, Phi) for Phi in grid]
    i_scale = max(map(abs, I))
    fd_ok = all(
        abs(-central_difference(lambda x: free_energy(model, x), Phi, h) - i) <= 1e-6 * i_scale
        for Phi, i in zip(grid, I))
    periodic_ok = max(abs(current(model, Phi + FLUX_QUANTUM) - i)
                      for Phi, i in zip(grid, I)) <= 1e-12 * i_scale
    odd_ok = max(abs(current(model, -Phi) + i) for Phi, i in zip(grid, I)) <= 1e-12 * i_scale

    # K=1 model drives the fixed-point solver exactly like the sinusoid
    c1 = 2.2e-21
    single = FreeEnergyModel((c1,), FLUX_QUANTUM)
    relation, i_j = reduced_cpr(single)
    amplitude_ok = abs(i_j - TWO_PI * c1 / FLUX_QUANTUM) <= 1e-24
    p = ReducedParams(beta=5.0, phi_fe=0.1)
    roots_ok = True
    for pe in (0.0, -0.3, 0.45, 1.1, 2.4):
        direct = find_fixed_points(pe, p)
        via_model = find_fixed_points(pe, p, cpr=relation)
        roots_ok &= len(direct) == len(via_model)
        roots_ok &= all(abs(a.phi - b.phi) <= 1e-10 and a.stability == b.stability
                        for a, b in zip(direct, via_model))
    _criterion(7, "free-energy relation checks", [
        ("analytic current matches finite differences to 1e-6", fd_ok),
        ("current periodic to 1e-12", periodic_ok),
        ("current odd to 1e-12", odd_ok),
        ("fundamental amplitude is 2*pi*c1/Phi0", amplitude_ok),
        ("K=1 fixed points equal sinusoidal ones to 1e-10", roots_ok),
        ("runtime under 5s", time.time() - t0 < 5.0),
    ])


def test_criterion_8_fit_round_trip():
    t0 = time.time()
    truth = ReducedParams(beta=5.0, phi_fe=0.3)
    amps = (2.0, -2.0, 3.0, -3.0, 4.0, -4.0)
    values = simulate_observables(truth, SweepSchedule(amps, 0.05))
    data = [Observation(a, v) for a, v in zip(amps, values)]
    result = fit_parameters(data, ReducedParams(beta=4.0, phi_fe=0.2),
                            FitBounds(1.5, 15.0, -0.5, 0.5))
    elapsed = time.time() - t0
    _criterion(8, f"fit round trip ({elapsed:.1f}s)", [
        ("beta recovered to 1e-2 relative",
         abs(result.params.beta - 5.0) <= 5.0 * 1e-2),
        ("phi_fe recovered to 1e-2 absolute",
         abs(result.params.phi_fe - 0.3) <= 1e-2),
        ("fit converged", result.converged),
        ("runtime under 60s", elapsed < 60.0),
    ])


def test_criterion_9_cli_determinism(tmp_path):
    argv = ["sweep", "--beta", "5", "--phi_fe", "0.3", "--amplitude", "3",
            "--step", "0.01"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli.main(argv + ["--out", str(a)])
    code_b = cli.main(argv + ["--out", str(b)])
    roots_argv = ["fixed-points", "--beta", "11.2", "--phi_ext", "0.77"]
    ra, rb = tmp_path / "ra.csv", tmp_path / "rb.csv"
    cli.main(roots_argv + ["--out", str(ra)])
    cli.main(roots_argv + ["--out", str(rb)])
    _criterion(9, "CLI byte determinism", [
        ("sweep runs succeed", code_a == 0 and code_b == 0),
        ("sweep CSVs byte-identical", a.read_bytes() == b.read_bytes()),
        ("fixed-point CSVs byte-identical", ra.read_bytes() == rb.read_bytes()),
    ])
