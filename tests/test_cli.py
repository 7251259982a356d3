"""Config layering, CSV schemas and round-trips, determinism, exit codes,
and the real CLI process."""

import csv
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ringflux import bloch_cpr, cli, sweep
from ringflux.fixed_points import NumericsError
from ringflux.ring_model import FLUX_QUANTUM
from ringflux.sweep import BranchState, SweepTrajectory


def run_cli(*argv):
    return cli.main(list(argv))


class TestConfigParsing:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 5\n")
        args = cli._build_parser().parse_args(
            ["fixed-points", "--config", str(cfg), "--beta", "3"])
        config = cli.parse_config(args)
        assert config.beta == 3.0

    def test_file_value_used_without_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment and blank lines are fine\n\nbeta = 5\nstep=0.25\n")
        args = cli._build_parser().parse_args(["sweep", "--config", str(cfg)])
        config = cli.parse_config(args)
        assert config.beta == 5.0
        assert config.step == 0.25

    def test_si_triple_derives_beta(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1e-10\nI_J = 1e-5\nPhi0 = 2.07e-15\n")
        args = cli._build_parser().parse_args(["fixed-points", "--config", str(cfg)])
        p = cli._reduced(cli.parse_config(args))
        assert p.beta == pytest.approx(3.0353552208597034, rel=1e-15)

    def test_default_flux_quantum_and_missing_beta(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        args = cli._build_parser().parse_args(["fixed-points", "--config", str(cfg)])
        config = cli.parse_config(args)
        assert config.Phi0 is None  # falls back to CODATA h/2e at use time
        code = run_cli("fixed-points", "--config", str(cfg), "--phi_ext", "0")
        err = capsys.readouterr().err
        assert code == 1
        assert "beta" in err and "L" in err and "I_J" in err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = 5\nthis line has no equals\n")
        assert run_cli("sweep", "--config", str(cfg)) == 1
        assert ":2:" in capsys.readouterr().err

    def test_unknown_key_rejected_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("betta = 5\n")
        assert run_cli("sweep", "--config", str(cfg)) == 1
        assert "betta" in capsys.readouterr().err

    def test_invalid_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = five\n")
        assert run_cli("sweep", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "beta" in err and ":1:" in err

    def test_env_var_supplies_default_path(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("beta = 2.5\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        args = cli._build_parser().parse_args(["fixed-points"])
        assert cli.parse_config(args).beta == 2.5

    def test_tolerance_keys_are_unknown(self, tmp_path, capsys):
        # the solver tolerances are library constants, not settings
        for key in ("tol", "marginal_tol"):
            assert run_cli("fixed-points", "--beta", "2", "--phi_ext", "0",
                           f"--{key}", "1e-12") == 1
            assert f"--{key}" in capsys.readouterr().err
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = 1e-12\n")
            assert run_cli("fixed-points", "--config", str(cfg), "--beta", "2",
                           "--phi_ext", "0") == 1
            assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_file_may_hold_keys_its_command_does_not_read(self, tmp_path, capsys):
        # one config file may serve every command
        cfg = tmp_path / "all.cfg"
        cfg.write_text("beta = 5\nphi_ext = 0.2\ndata = obs.csv\ncoeffs = 1e-22\nn = 3\n")
        assert run_cli("sweep", "--config", str(cfg), "--amplitude", "2", "--step", "0.5") == 0
        assert run_cli("fixed-points", "--config", str(cfg)) == 0

    def test_file_with_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "marked.cfg"
        cfg.write_text("\ufeffbeta = 5\nstep = 0.25\n", encoding="utf-8")
        args = cli._build_parser().parse_args(["sweep", "--config", str(cfg)])
        config = cli.parse_config(args)
        assert (config.beta, config.step) == (5.0, 0.25)


#: two values of each key, as text: one for the config file, one for the flag
_KEY_VALUES = {float: ("0.25", "-1e-3"), int: ("3", "7"), str: ("a.csv", "b.csv"),
               cli._parse_coeffs: ("1e-22,0", "-2e-22")}


@pytest.mark.parametrize("key", list(cli._CONFIG_PARSERS))
def test_every_key_layers_default_file_and_flag(key, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    parser = cli._CONFIG_PARSERS[key]
    in_file, in_flag = ("current", "remnant") if key == "kind" else _KEY_VALUES[parser]
    build = cli._build_parser().parse_args
    unset = cli.parse_config(build(["sweep"]))
    assert getattr(unset, key) == {"h_points": 11, "kind": "remnant"}.get(key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {in_file}\n")
    from_file = cli.parse_config(build(["sweep", "--config", str(cfg)]))
    assert getattr(from_file, key) == parser(in_file)
    flagged = cli.parse_config(build(["sweep", "--config", str(cfg), f"--{key}", in_flag]))
    assert getattr(flagged, key) == parser(in_flag) != parser(in_file)


def test_every_key_has_a_reader():
    assert set(cli._COMMAND_KEYS) == set(cli._COMMANDS)
    read = [key for keys in cli._COMMAND_KEYS.values() for key in keys]
    assert set(read) == set(cli._CONFIG_PARSERS)


@pytest.mark.parametrize("argv, flag", [
    (("fixed-points", "--beta", "5", "--phi_ext", "0.2", "--step", "0.1"), "--step"),
    (("sweep", "--beta", "5", "--amplitude", "3", "--step", "0.5", "--phi_ext", "0.2"),
     "--phi_ext"),
    (("wide-ring", "--n", "3", "--L", "1e-10", "--I_J", "1e-5"), "--I_J"),
    (("bloch-check", "--coeffs", "3.2e-22,0,1e-23", "--data", "obs.csv"), "--data"),
    (("fit", "--data", "obs.csv", "--beta", "4", "--area_A", "1e-6"), "--area_A"),
], ids=["fixed-points", "sweep", "wide-ring", "bloch-check", "fit"])
def test_flag_its_command_does_not_read_is_one(argv, flag, capsys):
    # a flag with no effect on the output is named, not silently dropped
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {argv[0]} does not read {flag}" in captured.err


class TestCsvEmission:
    def test_empty_trajectory_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        from ringflux.ring_model import ReducedParams
        traj = SweepTrajectory((), (), ())
        cli.emit_csv(traj, str(out), p=ReducedParams(beta=2.0))
        assert out.read_text() == "phi_ext,phi,i,branch_id,stable,event\n"

    def test_single_sample_two_lines(self, tmp_path):
        out = tmp_path / "one.csv"
        from ringflux.ring_model import ReducedParams
        traj = SweepTrajectory((BranchState(0.0, 0.0, 0.0, 0, 0.0),), (), (0,))
        cli.emit_csv(traj, str(out), p=ReducedParams(beta=0.5))
        assert out.read_text() == (
            "phi_ext,phi,i,branch_id,stable,event\n0,0,0,0,true,\n")

    def test_sweep_csv_roundtrips_bit_for_bit(self, tmp_path):
        # at phi_fe 1e15 the flux rounds at 0.125, and a class read from it
        # called stable roots unstable; the class is read at the cell root
        from ringflux.ring_model import ReducedParams
        from ringflux.sweep import run_hysteresis
        for phi_fe, step in (("0.125", "0.05"), ("1e15", "0.0625")):
            out = tmp_path / "sweep.csv"
            assert run_cli("sweep", "--beta", "5", "--amplitude", "2", "--step", step,
                           "--phi_fe", phi_fe, "--out", str(out)) == 0
            loop = run_hysteresis(ReducedParams(5.0, float(phi_fe)), 2.0, float(step))
            rows = list(csv.DictReader(out.read_text().splitlines()))
            assert len(rows) == len(loop.cycle.samples)
            for row, sample in zip(rows, loop.cycle.samples):
                assert float(row["phi_ext"]) == sample.phi_ext
                assert float(row["phi"]) == sample.phi
                assert float(row["i"]) == sample.i
                assert int(row["branch_id"]) == sample.branch_id
                assert row["stable"] == "true"
            jump_rows = [r for r in rows if r["event"] == "jump"]
            assert len(jump_rows) == len(loop.cycle.events)

    def test_fixed_points_schema(self, tmp_path):
        # just above beta = 1 at a half-integer drive the roots are the two
        # fold tangencies, which rounding leaves unbracketed
        for beta, phi_ext in (("5", "0.25"), ("1.000000000002723", "1.5")):
            out = tmp_path / "roots.csv"
            assert run_cli("fixed-points", "--beta", beta, "--phi_ext", phi_ext,
                           "--out", str(out)) == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            assert rows and list(rows[0]) == ["phi_ext", "phi", "i", "stability"]
            assert {r["stability"] for r in rows} <= {"stable", "unstable", "marginal"}
            for r in rows:
                assert float(r["phi_ext"]) == float(phi_ext)
                assert float(r["i"]) == pytest.approx(
                    math.sin(2 * math.pi * float(r["phi"])), abs=1e-14)

    def test_wide_ring_schema_and_identities(self, tmp_path):
        out = tmp_path / "wide.csv"
        assert run_cli("wide-ring", "--n", "3", "--L", "1e-10", "--Phi0", "2.07e-15",
                       "--area_A", "1e-6", "--h_points", "11", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 11
        assert float(rows[0]["i_outer"]) == 0.0
        last = rows[-1]
        assert float(last["i_inner"]) + float(last["i_outer"]) == 0.0
        inners = {r["i_inner"] for r in rows}
        assert len(inners) == 1
        assert float(rows[0]["b_remnant"]) == pytest.approx(3 * 2.07e-15 / 1e-6, rel=1e-12)

    def test_wide_ring_writes_rows_as_it_computes_them(self, tmp_path):
        # holding every row before writing cost about 480 B a row (24 MB
        # here); streamed, the peak does not grow with h_points
        out = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            code = run_cli("wide-ring", "--n", "3", "--L", "1e-10", "--h_points", "50000",
                           "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.read_text().splitlines()) == 50_001
        assert peak < 3_000_000

    def test_sweep_writes_rows_as_it_formats_them(self, tmp_path):
        # the samples are held either way; holding the CSV text as well cost
        # about 130 B a row over the loop's own peak, streamed about 14
        from ringflux.ring_model import ReducedParams
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            rows = len(sweep.run_hysteresis(ReducedParams(5.0, 0.3), 3.0, 0.001).cycle.samples)
            loop_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code = run_cli("sweep", "--beta", "5", "--phi_fe", "0.3", "--amplitude", "3",
                           "--step", "0.001", "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.read_text().splitlines()) == rows + 1 == 12_012
        assert peak - loop_peak < 50 * rows

    def test_unwritable_path_is_usage_error(self, capsys):
        assert run_cli("fixed-points", "--beta", "2", "--phi_ext", "0",
                       "--out", "/nonexistent-dir/x.csv") == 1

    @pytest.mark.parametrize("argv", [
        ("sweep", "--beta", "5", "--phi_fe", "0.3", "--amplitude", "3", "--step", "0.0005"),
        ("wide-ring", "--n", "3", "--L", "1e-10", "--h_points", "200000"),
    ], ids=lambda argv: argv[0])
    def test_stdout_closed_early_is_usage_error(self, argv):
        # as `ringflux ... | head -c 10`: the reader takes 10 bytes and
        # closes the pipe; one error line, no traceback, nothing at exit
        with subprocess.Popen([sys.executable, "-m", "ringflux.cli", *argv], env=_src_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: "), err


class TestDeterminism:
    def test_identical_configs_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--beta", "7.3", "--phi_fe", "0.21", "--amplitude", "2.6",
                "--step", "0.013"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_points_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("fixed-points", "--beta", "11.7", "--phi_ext", "1.37",
                           "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def _write_data(self, path, rows):
        path.write_text("phi_ext,observable\n" + "".join(f"{a},{b}\n" for a, b in rows))

    def test_fit_runs_and_reports(self, tmp_path, capsys):
        from ringflux.fit import simulate_observables
        from ringflux.ring_model import ReducedParams
        from ringflux.sweep import SweepSchedule
        amps = (2.0, -2.0, 3.0, -3.0)
        values = simulate_observables(ReducedParams(beta=5.0, phi_fe=0.3),
                                      SweepSchedule(amps, 0.05))
        data = tmp_path / "obs.csv"
        self._write_data(data, zip(amps, values))
        code = run_cli("fit", "--data", str(data), "--beta", "4.5", "--phi_fe", "0.2",
                       "--beta_min", "2", "--beta_max", "12")
        out = capsys.readouterr().out
        assert code == 0
        fitted = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fitted["beta"]) == pytest.approx(5.0, rel=1e-2)
        assert float(fitted["phi_fe"]) == pytest.approx(0.3, abs=1e-2)
        assert fitted["converged"] == "true"

    def test_non_finite_rows_rejected_with_row_number(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        self._write_data(data, [(2.0, 0.1), (-2.0, "nan"), (3.0, 0.2)])
        assert run_cli("fit", "--data", str(data), "--beta", "4") == 1
        assert "row 3" in capsys.readouterr().err

    def test_non_numeric_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        self._write_data(data, [(2.0, 0.1), (3.0, "oops")])
        assert run_cli("fit", "--data", str(data), "--beta", "4") == 1
        assert "row 3" in capsys.readouterr().err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("x,y\n1,2\n")
        assert run_cli("fit", "--data", str(data), "--beta", "4") == 1
        assert "phi_ext,observable" in capsys.readouterr().err

    def test_byte_order_mark_fits_like_plain_file(self, tmp_path, capsys):
        # spreadsheets export CSV with a leading U+FEFF
        text = "phi_ext,observable\n2,0.78\n-2,-0.78\n3,0.8\n-3,-0.8\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        argv = ("--beta", "5", "--beta_min", "2", "--beta_max", "12", "--restarts", "0")
        assert run_cli("fit", "--data", str(plain), *argv) == 0
        expected = capsys.readouterr().out
        assert run_cli("fit", "--data", str(marked), *argv) == 0
        assert capsys.readouterr().out == expected


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli("fixed-points", "--beta", "2", "--phi_ext", "0",
                       "--out", str(tmp_path / "r.csv")) == 0

    def test_usage_error_is_one(self):
        assert run_cli("no-such-command") == 1
        assert run_cli("sweep", "--beta", "2") == 1  # amplitude/step missing
        assert run_cli("sweep", "--beta", "2", "--amplitude", "-1", "--step", "0.1") == 1

    def test_numerical_failure_is_two(self, monkeypatch, capsys):
        def boom(config):
            raise NumericsError("synthetic solver breakdown")
        monkeypatch.setitem(cli._COMMANDS, "sweep", boom)
        assert run_cli("sweep", "--beta", "2") == 2
        assert "synthetic solver breakdown" in capsys.readouterr().err

    def test_window_below_rounding_is_two(self, capsys):
        assert run_cli("sweep", "--beta", "1.000000000001", "--amplitude", "2",
                       "--step", "0.01") == 2
        assert "window below rounding" in capsys.readouterr().err
        # at a half-integer bias the virgin state is a Marginal fold tangency,
        # and the first fold crossed names the same cause
        assert run_cli("sweep", "--beta", "1.000000000002723", "--phi_fe", "1.5",
                       "--amplitude", "1", "--step", "0.1") == 2
        assert "hysteretic window below rounding" in capsys.readouterr().err

    def test_area_below_rounding_is_two(self, capsys):
        assert run_cli("sweep", "--beta", "1.000000003", "--amplitude", "2",
                       "--step", "0.01") == 2
        assert "loop area below rounding" in capsys.readouterr().err

    @pytest.mark.parametrize("drive", ["inf", "-inf", "nan"])
    def test_non_finite_drive_is_one(self, drive, capsys):
        assert run_cli("fixed-points", "--beta", "5", "--phi_ext", drive) == 1
        err = capsys.readouterr().err
        assert "error: phi_ext must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("fixed-points", "--beta", "5", "--phi_fe", "1.7e308", "--phi_ext", "1.7e308"),
        ("sweep", "--beta", "5", "--phi_fe", "1e308", "--amplitude", "1e308", "--step", "1e308"),
    ], ids=lambda argv: argv[0])
    def test_overflowing_total_flux_is_one(self, argv, capsys):
        # each input is finite, but c = phi_ext + phi_fe overflows to inf
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "error: phi_ext + phi_fe must be finite" in err and "Traceback" not in err

    def test_unresolved_root_window_is_two(self, capsys):
        # c +/- lambda rounds to c: no root to print, not an empty table
        assert run_cli("fixed-points", "--beta", "5", "--phi_ext", "1e300") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no root resolved" in captured.err and "Traceback" not in captured.err

    def test_root_window_past_the_cap_is_one(self, capsys):
        # about 6.4e8 roots at beta 1e9: refused before any is allocated
        assert run_cli("fixed-points", "--beta", "1e9", "--phi_ext", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "MAX_ROOTS" in captured.err

    def test_beta_past_the_overflow_of_beta_squared_is_zero(self, capsys):
        assert run_cli("sweep", "--beta", "1e200", "--amplitude", "1", "--step", "0.5") == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    def test_infinite_fit_bound_is_one(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("phi_ext,observable\n2,0.1\n-2,-0.1\n3,0.2\n")
        assert run_cli("fit", "--data", str(data), "--beta", "4", "--beta_max", "inf") == 1
        err = capsys.readouterr().err
        assert "error: fit bounds must be finite" in err and "Traceback" not in err

    def test_overflowing_objective_is_two(self, tmp_path):
        # squared residuals near 1e308 overflow their sum; the real process,
        # so that a warning printed to stderr would show
        data = tmp_path / "obs.csv"
        data.write_text("phi_ext,observable\n2,1e154\n-2,-1e154\n3,0.5\n")
        proc = subprocess.run([sys.executable, "-m", "ringflux.cli", "fit", "--data", str(data),
                               "--beta", "4"], env=_src_env(), capture_output=True, timeout=120)
        err = proc.stderr.decode()
        assert proc.returncode == 2 and proc.stdout == b""
        assert "numerical failure: objective never reached a finite value" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    def test_negative_restarts_is_one(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("phi_ext,observable\n2,0.1\n-2,-0.1\n3,0.2\n")
        assert run_cli("fit", "--data", str(data), "--beta", "4", "--restarts", "-1") == 1
        err = capsys.readouterr().err
        assert "error: n_restarts must be >= 0" in err and "Traceback" not in err

    def test_large_beta_sweep_past_many_folds_is_zero(self, capsys):
        # 8,451 jumps; at |phi| ~ 3e3 g rounds at a few 1e-9, above
        # 1e-12*|phi|, so a branch solve accepts its root at the rounding of
        # g, 2*(1 + beta)*ulp(phi), as find_fixed_points does
        assert run_cli("sweep", "--beta", "2e4", "--amplitude", "6000", "--step", "50") == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    def test_more_than_64_folds_in_one_sub_step_is_two(self, capsys):
        assert run_cli("sweep", "--beta", "5", "--amplitude", "100", "--step", "100") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "more than 64 folds inside one sub-step" in captured.err

    def test_bloch_check_passes_for_cosine_series(self, capsys):
        assert run_cli("bloch-check", "--coeffs", "3.2e-22,0,1e-23") == 0
        out = capsys.readouterr().out
        assert "passed = true" in out
        assert "finite_difference_error" in out

    def test_bloch_check_of_an_overflowing_model_is_one(self, capsys):
        # the amplitude 2*pi*c_1/Phi0 overflows: a range error in the input
        assert run_cli("bloch-check", "--coeffs", "1e300") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "2*pi*k*c_k/Phi0" in captured.err

    def test_bloch_check_of_an_overflowing_series_is_one(self, capsys):
        # amplitudes of 1.26e308 each are finite, but their sum is not: a
        # range error in the input, rejected before any point is taken
        assert run_cli("bloch-check", "--Phi0", "1", "--coeffs", "2e307,1e307") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "amplitudes" in captured.err and "2*pi*k*c_k/Phi0" in captured.err

    @pytest.mark.parametrize("coeffs", [",", "0,0"])
    def test_bloch_check_of_a_model_without_current_is_one(self, coeffs, capsys):
        # no current: every relative deviation would read 0 against a scale
        # of 1, and the check would pass a model it cannot test
        assert run_cli("bloch-check", "--coeffs", coeffs) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no current" in captured.err

    @pytest.mark.parametrize("argv, cap", [
        (("wide-ring", "--n", "3", "--L", "1e-10", "--h_points"), sweep.MAX_SUBSTEPS),
        (("bloch-check", "--coeffs", "3e-22", "--grid_size"), bloch_cpr.MAX_GRID_SIZE),
    ], ids=["h_points", "grid_size"])
    def test_size_past_its_cap_is_one(self, argv, cap, capsys):
        # refused before a row is allocated or a grid point taken
        tracemalloc.start()
        try:
            code = run_cli(*argv, str(cap + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and f"{cap}], got {cap + 1}" in captured.err
        assert peak < 1_000_000


class TestNegativeValues:
    # argparse alone takes only "-0.5"-like tokens as negative numbers

    def test_exponent_form_drive(self, capsys):
        assert run_cli("fixed-points", "--beta", "5", "--phi_ext", "-1e-3") == 0
        spaced = capsys.readouterr().out
        assert run_cli("fixed-points", "--beta", "5", "--phi_ext=-1e-3") == 0
        assert spaced == capsys.readouterr().out
        assert spaced.splitlines()[1].startswith("-0.001,")

    def test_coefficient_list_with_leading_minus(self, capsys):
        assert run_cli("bloch-check", "--coeffs", "-1e-22,0") == 0
        spaced = capsys.readouterr().out
        assert run_cli("bloch-check", "--coeffs=-1e-22,0") == 0
        assert spaced == capsys.readouterr().out
        assert "passed = true" in spaced


FROZEN_STDOUT = {
    ("sweep", "--beta", "5", "--phi_fe", "0.3", "--amplitude", "3", "--step", "0.01"):
        "257eeb4c6257992be8f12d5302aaaa25df968efaa1d7a0e3ebbca1d50c7ee040",
    ("sweep", "--beta", "18.55972099975719", "--phi_fe", "-0.08016403792901305",
     "--amplitude", "3.7168673500582896", "--step", "0.05"):
        "004b1271631d3530d5618686c2a23760af1b8287e62de0332603f368da948fd6",
    ("fixed-points", "--beta", "40", "--phi_ext", "0.183"):
        "83b4bdd53e443755c7de9ff90df2cc1a4cd59f4e4fd7cf067fce4d7aef6e9f8e",
    ("wide-ring", "--n", "3", "--L", "1e-10", "--Phi0", "2.07e-15"):
        "e177fd4e68ce8d0b623a072274119500034c9f942e7cb9c568812d8c5e31ddf7",
}


@pytest.mark.parametrize("argv", list(FROZEN_STDOUT), ids=lambda argv: argv[0])
def test_stdout_bytes_are_frozen(argv, capsys):
    """main()'s stdout is byte-identical across refactors, checked by sha256.

    The second sweep moves by a few ulps if a branch solve, a landing's or
    a sub-step's, takes another slope than the g' of find_fixed_points.
    A deliberate byte change updates these digests, with a ledger of what
    moved in CHANGES.md.
    """
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == FROZEN_STDOUT[argv]


FIT_SUMMARY_KEYS = ["beta", "phi_fe", "objective", "iterations", "converged",
                    "flat_objective"]


@pytest.mark.parametrize("argv, keys", [
    (("fit", "--beta", "4.5", "--phi_fe", "0.2", "--restarts", "0"), FIT_SUMMARY_KEYS),
    (("fit", "--beta", "4.5", "--phi_fe", "0.2", "--restarts", "0", "--I_J", "1e-5"),
     FIT_SUMMARY_KEYS + ["L", "Phi_Fe"]),
    (("bloch-check", "--coeffs", "3.2e-22,0,1e-23"),
     ["current_periodicity", "energy_periodicity", "finite_difference_error", "passed"]),
], ids=["fit", "fit-si", "bloch-check"])
def test_summary_key_order(argv, keys, tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("phi_ext,observable\n2,0.78\n-2,-0.78\n3,0.8\n-3,-0.8\n")
    assert run_cli(*argv, *(("--data", str(data)) if argv[0] == "fit" else ())) == 0
    out = capsys.readouterr().out
    assert [line.split(" = ")[0] for line in out.splitlines()] == keys


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


#: an expression a probe process prints: the numpy and scipy modules it loaded
_NUMPY_OR_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))"


def test_cli_process_matches_main_and_starts_without_numpy_or_scipy(capsys):
    env = _src_env()
    argv = ("fixed-points", "--beta", "5", "--phi_ext", "0.25")
    proc = subprocess.run([sys.executable, "-m", "ringflux.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(*argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()

    probe = f"import ringflux, ringflux.cli, sys; print({_NUMPY_OR_SCIPY})"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"

    # bloch-check evaluates its series with math
    run = ["bloch-check", "--coeffs", "3.2e-22,0,1e-23"]
    probe = f"import sys; from ringflux import cli; print(cli.main({run!r}), {_NUMPY_OR_SCIPY})"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 []"


#: a run of each command, and the modules it must not load since it runs none
#: of their code; only reading an observation CSV (`{data}`) needs csv
_FOOTPRINTS = {
    "fixed-points": (["--beta", "5", "--phi_ext", "0.25"],
                     ["ringflux.sweep", "ringflux.wide_ring", "ringflux.bloch_cpr",
                      "ringflux.fit", "csv"]),
    "sweep": (["--beta", "5", "--phi_fe", "0.3", "--amplitude", "3", "--step", "0.05"],
              ["ringflux.wide_ring", "ringflux.bloch_cpr", "ringflux.fit", "csv"]),
    "wide-ring": (["--n", "3", "--L", "1e-10"],
                  ["ringflux.sweep", "ringflux.bloch_cpr", "ringflux.fit", "csv"]),
    "bloch-check": (["--coeffs", "3.2e-22,0,1e-23"],
                    ["ringflux.sweep", "ringflux.wide_ring", "ringflux.fit", "csv"]),
    "fit": (["--data", "{data}", "--beta", "4.5", "--phi_fe", "0.2", "--restarts", "0"],
            ["ringflux.wide_ring", "ringflux.bloch_cpr"]),
}


def test_import_ringflux_loads_no_submodule():
    probe = "import sys, ringflux; print(sorted(m for m in sys.modules if m.startswith('ringflux.')))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


@pytest.mark.parametrize("command", list(_FOOTPRINTS))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("phi_ext,observable\n2,0.78\n-2,-0.78\n3,0.8\n-3,-0.8\n")
    flags, absent = _FOOTPRINTS[command]
    argv = [command, *(flag.format(data=data) for flag in flags)]
    probe = (f"import sys; from ringflux import cli; code = cli.main({argv!r}); "
             f"print(code, sorted(set({absent!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 []"


def test_fit_without_a_restart_starts_without_numpy(tmp_path):
    # numpy is imported only to draw a restart: a closed-form fit draws
    # none, nor does a simplex fit with --restarts 0
    from ringflux.fit import simulate_observables
    from ringflux.ring_model import ReducedParams
    amps = (2.0, -2.0, 3.0, -3.0)
    values = simulate_observables(ReducedParams(beta=6.5, phi_fe=0.2), amps)
    exact, rough = tmp_path / "exact.csv", tmp_path / "rough.csv"
    exact.write_text("phi_ext,observable\n"
                     + "".join(f"{a!r},{v!r}\n" for a, v in zip(amps, values)))
    rough.write_text("phi_ext,observable\n2,0.78\n-2,-0.78\n3,0.8\n-3,-0.8\n")
    runs = [["fit", "--data", str(exact), "--beta", "6"],
            ["fit", "--data", str(rough), "--beta", "4.5", "--phi_fe", "0.2", "--restarts", "0"]]
    probe = (f"import sys; from ringflux import cli; codes = [cli.main(a) for a in {runs!r}]; "
             f"print(codes, {_NUMPY_OR_SCIPY})")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[-1] == "[0, 0] []"
    iterations = [line for line in lines if line.startswith("iterations = ")]
    assert iterations[0] == "iterations = 0" != iterations[1]  # closed form, then a simplex
