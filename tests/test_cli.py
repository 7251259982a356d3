"""Config layering, CSV schemas and round-trips, determinism, exit codes,
and the real CLI process."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringflux import cli
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
        traj = SweepTrajectory((BranchState(0.0, 0.0, 0.0, 0),), (), (0,))
        cli.emit_csv(traj, str(out), p=ReducedParams(beta=0.5))
        assert out.read_text() == (
            "phi_ext,phi,i,branch_id,stable,event\n0,0,0,0,true,\n")

    def test_sweep_csv_roundtrips_bit_for_bit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--beta", "5", "--amplitude", "2", "--step", "0.05",
                       "--phi_fe", "0.125", "--out", str(out)) == 0
        from ringflux.ring_model import ReducedParams
        from ringflux.sweep import run_hysteresis
        loop = run_hysteresis(ReducedParams(beta=5.0, phi_fe=0.125), 2.0, 0.05)
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
        out = tmp_path / "roots.csv"
        assert run_cli("fixed-points", "--beta", "5", "--phi_ext", "0.25",
                       "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert list(rows[0]) == ["phi_ext", "phi", "i", "stability"]
        assert {r["stability"] for r in rows} <= {"stable", "unstable", "marginal"}
        for r in rows:
            assert float(r["phi_ext"]) == 0.25
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

    def test_unwritable_path_is_usage_error(self, capsys):
        assert run_cli("fixed-points", "--beta", "2", "--phi_ext", "0",
                       "--out", "/nonexistent-dir/x.csv") == 1


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

    def test_area_below_rounding_is_two(self, capsys):
        assert run_cli("sweep", "--beta", "1.000000003", "--amplitude", "2",
                       "--step", "0.01") == 2
        assert "loop area below rounding" in capsys.readouterr().err

    def test_bloch_check_passes_for_cosine_series(self, capsys):
        assert run_cli("bloch-check", "--coeffs", "3.2e-22,0,1e-23") == 0
        out = capsys.readouterr().out
        assert "passed = true" in out
        assert "finite_difference_error" in out


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


def test_cli_process_matches_main_and_starts_without_numpy_or_scipy(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ("fixed-points", "--beta", "5", "--phi_ext", "0.25")
    proc = subprocess.run([sys.executable, "-m", "ringflux.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(*argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()

    probe = ("import ringflux, ringflux.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"
