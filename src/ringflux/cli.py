"""Command-line front end: config, dataset ingestion, CSV emission.

Commands
--------
fixed-points   roots of the flux balance at one applied flux
sweep          hysteresis cycle with remnant summary
wide-ring      inner/outer current table over an applied-field grid
bloch-check    symmetry and finite-difference checks of a free-energy model
fit            least-squares parameter fit against an observation CSV

Configuration keys are those of `_CONFIG_PARSERS`.  A command takes as a
flag `--key` only a key of its `_COMMAND_KEYS` entry, one its output can
depend on; a config file may hold any key, since one file may serve every
command.  Values come from (in increasing precedence) `_CLI_DEFAULTS`
(h_points 11, kind remnant; any other unset key is None, and the library
default applies), a `key = value` config file (default path:
$RINGFLUX_CONFIG), and flags.
Config and observation files may start with a UTF-8 byte-order mark.  Reals
in emitted CSVs carry 17 significant digits, so re-parsing reproduces them
bit for bit; identical configs produce byte-identical files.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import fixed_points, ring_model
from .fixed_points import MAX_SUBSTEPS, NumericsError, Stability

if TYPE_CHECKING:  # each command imports the modules it runs
    from . import fit as fit_mod, sweep

ENV_CONFIG = "RINGFLUX_CONFIG"

SWEEP_HEADER = ("phi_ext", "phi", "i", "branch_id", "stable", "event")
FIXED_POINT_HEADER = ("phi_ext", "phi", "i", "stability")
WIDE_RING_HEADER = ("h_over_hc", "i_inner", "i_outer", "b_remnant")
OBSERVATION_HEADER = ("phi_ext", "observable")


class UsageError(Exception):
    """Bad flags, bad config, or missing required values (exit code 1)."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # normalizes -0.0
    return str(value)


def _summary(*pairs: tuple[str, object]) -> None:
    """Print each (key, value) pair to stdout as a `key = value` line."""
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from exc


_CONFIG_PARSERS = {
    "L": float, "I_J": float, "Phi0": float, "Phi_Fe": float, "area_A": float,
    "beta": float, "phi_fe": float, "phi_ext": float, "amplitude": float,
    "step": float, "n": int, "h_points": int, "grid_size": int, "restarts": int,
    "coeffs": _parse_coeffs, "data": str, "kind": str, "out": str,
    "beta_min": float, "beta_max": float, "phi_fe_min": float, "phi_fe_max": float,
}

_REDUCED_KEYS = ("beta", "phi_fe", "L", "I_J", "Phi0", "Phi_Fe")  # those _reduced reads

_COMMAND_KEYS = {
    "fixed-points": (*_REDUCED_KEYS, "phi_ext", "out"),
    "sweep": (*_REDUCED_KEYS, "area_A", "amplitude", "step", "out"),
    "wide-ring": ("L", "Phi0", "area_A", "n", "h_points", "out"),
    "bloch-check": ("coeffs", "Phi0", "grid_size"),
    "fit": ("data", "kind", "beta", "phi_fe", "beta_min", "beta_max", "phi_fe_min",
            "phi_fe_max", "restarts", "I_J", "Phi0"),
}

_CLI_DEFAULTS = {"h_points": 11, "kind": "remnant"}


def parse_config_file(path: Path) -> dict:
    """Read a line-oriented `key = value` file; unknown keys are rejected."""
    values: dict = {}
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except (ValueError, TypeError):
            raise UsageError(f"{path}:{lineno}: invalid value for {key!r}: {value!r}")
    return values


def parse_config(args: argparse.Namespace) -> argparse.Namespace:
    """Every key of _CONFIG_PARSERS, layered None < _CLI_DEFAULTS < config
    file < flags."""
    config = {**dict.fromkeys(_CONFIG_PARSERS), **_CLI_DEFAULTS}
    path = args.config if args.config is not None else os.environ.get(ENV_CONFIG)
    if path:
        config.update(parse_config_file(Path(path)))
    flags = {key: getattr(args, key, None) for key in _CONFIG_PARSERS}
    config.update((key, value) for key, value in flags.items() if value is not None)
    if config["kind"] not in ("remnant", "current"):
        raise UsageError(f"kind must be 'remnant' or 'current', got {config['kind']!r}")
    return argparse.Namespace(**config)


def _given(config: argparse.Namespace, *keys: str) -> dict:
    """The named values that were given, for passing on as keywords so that
    the library's defaults apply to the rest."""
    return {k: getattr(config, k) for k in keys if getattr(config, k) is not None}


def _reduced(config: argparse.Namespace) -> ring_model.ReducedParams:
    """Reduced parameters from either beta or the SI pair (L, I_J)."""
    phi0 = config.Phi0 if config.Phi0 is not None else ring_model.FLUX_QUANTUM
    if config.beta is not None:
        beta = config.beta
    elif config.L is not None and config.I_J is not None:
        beta = ring_model.TWO_PI * config.L * config.I_J / phi0
    else:
        raise UsageError("missing parameters: give beta, or both L and I_J")
    if config.phi_fe is not None:
        phi_fe = config.phi_fe
    elif config.Phi_Fe is not None:
        phi_fe = config.Phi_Fe / phi0
    else:
        phi_fe = 0.0
    return ring_model.ReducedParams(beta=beta, phi_fe=phi_fe)


def _si_scales(config: argparse.Namespace) -> dict:
    """I_J, Phi0 and area_A as given.  I_J falls back to 1 A: it sets only
    the current scale, on which no reported field or wide-ring current
    depends."""
    return {"I_J": 1.0, **_given(config, "I_J", "Phi0", "area_A")}


def _ring(config: argparse.Namespace, p: ring_model.ReducedParams) -> ring_model.RingParams:
    return ring_model.unreduce(p, **_si_scales(config))


# ---------------------------------------------------------------------------
# CSV emission and ingestion
# ---------------------------------------------------------------------------

def _write_lines(header: Sequence[str], lines: Iterable[str], path: str | None) -> None:
    """The header, then each line as `lines` yields it: no whole CSV is held."""
    text = (line + "\n" for line in itertools.chain([",".join(header)], lines))
    if path is None:
        sys.stdout.writelines(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_rows(header: Sequence[str], rows: Iterable[tuple], path: str | None) -> None:
    _write_lines(header, (",".join(_fmt(v) for v in row) for row in rows), path)


def _sweep_lines(traj: sweep.SweepTrajectory, p: ring_model.ReducedParams) -> Iterator[str]:
    """The SWEEP_HEADER rows, yielded one by one, each in one f-string with
    _fmt's formats: the reals, the branch index, the cell root's class, the event."""
    landing = {e.landing_index for e in traj.events}
    classify, stable = fixed_points.classify_stability, Stability.STABLE
    return (f"{s.phi_ext + 0.0:.17g},{s.phi + 0.0:.17g},{s.i + 0.0:.17g},{s.branch_id},"
            f"{'true' if classify(s.u, p) is stable else 'false'},"
            f"{'jump' if idx in landing else ''}"
            for idx, s in enumerate(traj.samples))


def emit_csv(result, path: str | None, *, p: ring_model.ReducedParams | None = None,
             phi_ext: float | None = None) -> None:
    """Write any command result as CSV (to stdout when path is None)."""
    if isinstance(result, list) and all(isinstance(r, fixed_points.FixedPoint) for r in result):
        rows = [(phi_ext, r.phi, r.i, r.stability.value) for r in result]
        _write_rows(FIXED_POINT_HEADER, rows, path)
        return
    from . import sweep  # only now: roots are written without it
    if isinstance(result, sweep.HysteresisLoop):
        _write_lines(SWEEP_HEADER, _sweep_lines(result.cycle, p), path)
    elif isinstance(result, sweep.SweepTrajectory):
        _write_lines(SWEEP_HEADER, _sweep_lines(result, p), path)
    else:
        raise TypeError(f"no CSV schema for {type(result).__name__}")


def read_observations_csv(path: Path, kind: fit_mod.ObservationKind) -> list[fit_mod.Observation]:
    """Ingest a `phi_ext,observable` CSV, rejecting bad rows by number."""
    import csv
    from . import fit as fit_mod
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read data file {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows or tuple(h.strip() for h in rows[0]) != OBSERVATION_HEADER:
        raise UsageError(f"{path}: expected header 'phi_ext,observable'")
    observations = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise UsageError(f"{path}: row {lineno}: expected 2 columns, got {len(row)}")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise UsageError(f"{path}: row {lineno}: non-numeric values {row!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise UsageError(f"{path}: row {lineno}: non-finite values {row!r}")
        observations.append(fit_mod.Observation(x, y, kind))
    return observations


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_fixed_points(config: argparse.Namespace) -> int:
    if config.phi_ext is None:
        raise UsageError("missing parameter: phi_ext")
    p = _reduced(config)
    roots = fixed_points.find_fixed_points(config.phi_ext, p)
    emit_csv(roots, config.out, phi_ext=config.phi_ext)
    return 0


def _cmd_sweep(config: argparse.Namespace) -> int:
    if config.amplitude is None or config.step is None:
        raise UsageError("missing parameters: amplitude and step")
    from . import sweep
    p = _reduced(config)
    loop = sweep.run_hysteresis(p, config.amplitude, config.step)
    emit_csv(loop, config.out, p=p)
    report = sweep.remnant_report(loop, _ring(config, p))
    _summary(("remnant_phi_down", report.phi_down), ("remnant_phi_up", report.phi_up),
             ("n_down", report.n_down), ("n_up", report.n_up),
             ("B_remnant_down", report.B_remnant_down), ("B_remnant_up", report.B_remnant_up),
             ("loop_area", loop.loop_area), ("jumps", len(loop.cycle.events)))
    return 0


def _cmd_wide_ring(config: argparse.Namespace) -> int:
    if config.n is None:
        raise UsageError("missing parameter: n (trapped flux integer)")
    if config.L is None:
        raise UsageError("missing parameter: L")
    if not 2 <= config.h_points <= MAX_SUBSTEPS:
        raise UsageError(f"h_points must be in [2, {MAX_SUBSTEPS}], got {config.h_points}")
    from . import wide_ring
    params = ring_model.RingParams(L=config.L, **_si_scales(config))
    b_remnant = wide_ring.remnant_field(config.n, params)
    hs = (j / (config.h_points - 1) for j in range(config.h_points))
    rows = ((h, *wide_ring.currents_at(config.n, h, params), b_remnant) for h in hs)
    _write_rows(WIDE_RING_HEADER, rows, config.out)
    return 0


def _cmd_bloch_check(config: argparse.Namespace) -> int:
    if config.coeffs is None:
        raise UsageError("missing parameter: coeffs (comma-separated joules)")
    from . import bloch_cpr
    model = bloch_cpr.FreeEnergyModel(config.coeffs, **_given(config, "Phi0"))
    report = bloch_cpr.validate_symmetries(model, **_given(config, "grid_size"))
    fd_error = bloch_cpr.finite_difference_current_error(model)
    ok = report.passed() and fd_error <= bloch_cpr.FD_TOL
    _summary(*report._asdict().items(), ("finite_difference_error", fd_error), ("passed", ok))
    return 0 if ok else 2


def _cmd_fit(config: argparse.Namespace) -> int:
    if config.data is None:
        raise UsageError("missing parameter: data (observations CSV)")
    if config.beta is None:
        raise UsageError("missing parameter: beta (initial guess)")
    from . import fit as fit_mod
    observations = read_observations_csv(Path(config.data),
                                         fit_mod.ObservationKind(config.kind))
    bounds = fit_mod.FitBounds(
        **_given(config, "beta_min", "beta_max", "phi_fe_min", "phi_fe_max"))
    initial = ring_model.ReducedParams(beta=config.beta, **_given(config, "phi_fe"))
    options = {} if config.restarts is None else {"n_restarts": config.restarts}
    result = fit_mod.fit_parameters(observations, initial, bounds, **options)
    _summary(("beta", result.params.beta), ("phi_fe", result.params.phi_fe),
             ("objective", result.objective_value), ("iterations", result.iterations),
             ("converged", result.converged), ("flat_objective", result.flat_objective))
    if config.I_J is not None:
        ring = _ring(config, result.params)
        _summary(("L", ring.L), ("Phi_Fe", ring.Phi_Fe))
    return 0


_COMMANDS = {
    "fixed-points": _cmd_fixed_points,
    "sweep": _cmd_sweep,
    "wide-ring": _cmd_wide_ring,
    "bloch-check": _cmd_bloch_check,
    "fit": _cmd_fit,
}


_VALUE_FLAGS = {"--config", *(f"--{key}" for key in _CONFIG_PARSERS)}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads only "-0.5"-like tokens as negative numbers, so a
        # value such as -1e-3 or -1e-22,0 is passed joined as --key=value
        rest, joined = iter(sys.argv[1:] if args is None else args), []
        for arg in rest:
            value = next(rest, None) if arg in _VALUE_FLAGS else None
            joined.append(arg if value is None else f"{arg}={value}")
        return super().parse_known_args(joined, namespace)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ringflux",
                     description="Flux states, hysteresis, and fits for a "
                                 "superconducting ring with a Josephson junction")
    common = _Parser(add_help=False)
    common.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
    for key, kind in _CONFIG_PARSERS.items():
        common.add_argument(f"--{key}", type=kind)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        unread = [f"--{key}" for key in _CONFIG_PARSERS
                  if getattr(args, key) is not None and key not in _COMMAND_KEYS[args.command]]
        if unread:
            raise UsageError(f"{args.command} does not read {', '.join(unread)}")
        config = parse_config(args)
        code = _COMMANDS[args.command](config)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # as an unwritable --out; at devnull, stdout's flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
