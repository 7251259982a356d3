"""Quasi-static continuation of the occupied flux state under a varying drive.

A sweep follows the stable root of the flux balance as the applied flux
moves through a schedule of waypoints.  It starts on the stable root
nearest a flux hint, found by solving the three stable branches about the
hint; no sweep scans every root.  While the occupied stable branch exists the
state tracks it continuously; when the drive crosses a fold the branch
vanishes and the state jumps to the neighbouring branch in the drive's
direction ("the flux quantum is admitted").  A branch of the
sinusoidal relation ends at an analytic tangency, so a fold is placed there
directly, not searched for; remnant values therefore do not depend on the
step size.

Hysteresis loops run the cycle 0 -> +amplitude -> -amplitude -> 0 and
report the two zero-drive crossings (descending and ascending remnants)
plus the signed loop area of the (phi_ext, i) cycle as traversed.  Along a
branch i d(phi_ext) is an exact differential and a jump adds no area, so
the area is evaluated in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .fixed_points import (
    MAX_SUBSTEPS,
    FixedPoint,
    NumericsError,
    Stability,
    _branch_point,
    _branch_root,
    _branches,
    classify_stability,
)
from .ring_model import TWO_PI, ReducedParams, RingParams, _require_finite

_MAX_JUMPS_PER_STEP = 64


@dataclass(frozen=True)
class SweepSchedule:
    """Ordered applied-flux waypoints and the maximal sub-step between them.

    A schedule of more than MAX_SUBSTEPS sub-steps in total is rejected.
    """

    waypoints: tuple[float, ...]
    step: float

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError("schedule needs at least one waypoint")
        if not all(math.isfinite(w) for w in self.waypoints):
            raise ValueError(f"waypoints must be finite, got {self.waypoints}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        substeps = 0
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise ValueError(f"consecutive waypoints must differ, got repeated {a}")
            # capped before ceil, which overflows on an infinite ratio
            substeps += math.ceil(min(abs(b - a) / self.step, MAX_SUBSTEPS + 1))
        if substeps > MAX_SUBSTEPS:
            raise ValueError(
                f"schedule needs more than {MAX_SUBSTEPS} sub-steps at step {self.step}")


class BranchState(NamedTuple):
    """Occupied stable fixed point during a sweep; also one trajectory sample.

    phi = j + u, rounded, for the cell root u in cell j = branch_id (round(c)
    for beta <= 1); solves, classes and loop_area read u, which phi rounds."""

    phi_ext: float
    phi: float
    i: float
    branch_id: int
    u: float


@dataclass(frozen=True)
class JumpEvent:
    """One branch loss: drive value, departing and landing flux."""

    phi_ext_at_jump: float
    phi_before: float
    phi_after: float
    landing_index: int


@dataclass(frozen=True)
class SweepTrajectory:
    """Time-ordered stable samples with the jump events between them.

    waypoint_indices[k] is the sample index at schedule waypoint k.
    """

    samples: tuple[BranchState, ...]
    events: tuple[JumpEvent, ...]
    waypoint_indices: tuple[int, ...]


@dataclass(frozen=True)
class HysteresisLoop:
    """Full drive cycle 0 -> +amp -> -amp -> 0 and its summary numbers.

    `cycle` holds every sample in time order; its waypoint_indices mark the
    five waypoints, so e.g. the descending pass is the slice between the
    second and fourth.  Remnants are the flux at the two zero-drive
    crossings after the start; loop_area is given by loop_area().
    """

    remnant_up: float
    remnant_down: float
    loop_area: float
    cycle: SweepTrajectory


class RemnantReport(NamedTuple):
    n_up: int
    n_down: int
    B_remnant_up: float
    B_remnant_down: float
    phi_up: float
    phi_down: float


# ---------------------------------------------------------------------------
# Single-branch continuation
# ---------------------------------------------------------------------------

def _on_branch(p: ReducedParams, k: int, phi_ext: float, x0: float) -> BranchState:
    """The state on the caller's branch k at phi_ext, from the cell coordinate x0."""
    phi, u = _branch_point(phi_ext + p.phi_fe, k, p, x0)
    return BranchState(phi_ext, phi, math.sin(TWO_PI * u), k, u)


def continue_branch(state: BranchState, phi_ext_next: float, p: ReducedParams) -> BranchState:
    """The occupied stable root moved along its own branch to the next applied
    flux, which the caller has checked lies within the branch's fold levels
    (every flux without folds); at the state's own drive, the state itself."""
    if phi_ext_next == state.phi_ext:
        return state
    return _on_branch(p, state.branch_id, phi_ext_next, state.u)


@functools.lru_cache(maxsize=64)
def _landing(beta: float) -> float:
    """u, the cell root of every ascending landing (descending: -u, the model is odd).

    Off the fold of branch k at c - k = s*(1/2 + w), branch k + s has the
    exact cell drive -s*(1/2 - w) whatever k and phi_fe: one solve serves every
    jump.  Its slope g' is about 3*(beta - 1): Marginal below beta - 1 of
    about 3e-10, which NumericsError names as the window below rounding."""
    p = ReducedParams(beta)
    u = _branch_root(-(0.5 - _branches(beta).w), p)
    if u is None or classify_stability(u, p) is not Stability.STABLE:
        raise NumericsError(f"no stable root survives a fold: hysteretic window below rounding at "
                            f"beta={beta!r} (its slope 3*(beta - 1) is under MARGINAL_TOL)")
    return u


def resolve_jump(p: ReducedParams, k: int, ascending: bool) -> tuple[float, float, FixedPoint]:
    """(drive, departing flux, landing root) of the jump off a fold of branch k.

    Branch k dies where its cell drive c - k reaches s*half, s = +1 ascending
    and -1 descending, at its cell end s*e (fixed_points.Branches), so remnants
    do not depend on the sweep step.  One flux quantum is admitted: the state
    lands on branch k + s, the nearest surviving stable root (README, numerical
    notes), at the cell root s*_landing(beta); nothing is solved here.
    """
    br, s = _branches(p.beta), 1 if ascending else -1
    u = s * _landing(p.beta)
    return (k + s * br.half - p.phi_fe, k + s * 0.5 - s * br.phi_a,  # k + s*e rounds otherwise
            FixedPoint(k + s + u, math.sin(TWO_PI * u), Stability.STABLE))


# ---------------------------------------------------------------------------
# Schedules and loops
# ---------------------------------------------------------------------------

def _initial_state(p: ReducedParams, phi_ext: float, phi_hint: float) -> BranchState:
    """The stable root nearest phi_hint (ties: smaller |i|, then smaller phi),
    with the k and u of the solve that found it: without folds the one root,
    branch 0.  With folds it is on stable branch m - 1, m or m + 1, m =
    round(phi_hint) clamped to the branches that live at the drive (README,
    numerical notes); if none of the three roots is STABLE (the Marginal
    corners just above beta = 1), the nearest MARGINAL one of them.  Nothing
    scans every root, so u lies on its own branch's segment, |u| <= e.
    """
    c, half = phi_ext + p.phi_fe, _branches(p.beta).half
    if half == math.inf:
        return _on_branch(p, 0, phi_ext, 0.0)
    m = round(min(max(phi_hint, math.ceil(c - half)), math.floor(c + half)))
    roots = [(k + u, math.sin(TWO_PI * u), k, u, classify_stability(u, p))
             for k in (m - 1, m, m + 1) if (u := _branch_root(c - k, p)) is not None]
    pool = ([r for r in roots if r[4] is Stability.STABLE]
            or [r for r in roots if r[4] is Stability.MARGINAL])
    if not pool:
        raise NumericsError(f"no stable root at phi_ext={phi_ext!r}")
    phi, i, k, u, _ = min(pool, key=lambda r: (abs(r[0] - phi_hint), abs(r[1]), r[0]))
    return BranchState(phi_ext, phi, i, k, u)


def run_schedule(p: ReducedParams, schedule: SweepSchedule,
                 init_phi_hint: float = 0.0) -> SweepTrajectory:
    """Sweep the applied flux through the schedule, recording every sub-step.

    The sweep starts on the stable root nearest `init_phi_hint` at the first
    waypoint (the virgin state for hysteresis runs).  The occupied branch k
    lives while a sub-step's total flux c has |c - k| <= half (Branches);
    past that, _walk names the branch where c lands and resolve_jump crosses
    each fold on the way (at most _MAX_JUMPS_PER_STEP).  Every sub-step and
    every jump landing is a sample, a stable fixed point.  A sub-step solves
    from the previous sample and a waypoint from the cell centre, so a
    waypoint's flux is the kernels' (hysteresis_remnants, path_fluxes) bit
    for bit, unless a jump landed exactly on its drive.
    """
    if not math.isfinite(init_phi_hint):
        raise ValueError(f"init_phi_hint must be finite, got {init_phi_hint}")
    w = schedule.waypoints
    for x in w:  # every sub-step's c lies between two waypoints'
        _require_finite("phi_ext + phi_fe", x + p.phi_fe)
    state, half = _initial_state(p, w[0], init_phi_hint), _branches(p.beta).half
    samples = [state]
    events: list[JumpEvent] = []
    waypoint_indices = [0]

    for w0, w1 in zip(w, w[1:]):
        nsub = max(1, math.ceil(abs(w1 - w0) / schedule.step))
        delta = (w1 - w0) / nsub
        for j in range(1, nsub + 1):
            pe = w1 if j == nsub else w0 + j * delta
            c, k = pe + p.phi_fe, state.branch_id
            if not abs(c - k) <= half and pe != state.phi_ext:
                s = 1 if c > k else -1
                folds = abs(_walk(k, c, s, half) - k)
                if folds > _MAX_JUMPS_PER_STEP:
                    raise NumericsError(
                        f"more than {_MAX_JUMPS_PER_STEP} folds inside one sub-step; "
                        f"step {schedule.step} is too coarse")
                for _ in range(folds):
                    at, before, landing = resolve_jump(p, state.branch_id, s > 0)
                    state = BranchState(at, landing.phi, landing.i, state.branch_id + s,
                                        s * _landing(p.beta))
                    samples.append(state)
                    events.append(JumpEvent(at, before, landing.phi, len(samples) - 1))
            if pe == state.phi_ext:
                continue  # a jump landed exactly on this drive
            if j < nsub:
                state = continue_branch(state, pe, p)
            else:  # a waypoint, solved from the cell centre as both kernels solve it
                state = _on_branch(p, state.branch_id, pe, 0.0)
            samples.append(state)
        waypoint_indices.append(len(samples) - 1)

    return SweepTrajectory(tuple(samples), tuple(events), tuple(waypoint_indices))


def loop_area(traj: SweepTrajectory, p: ReducedParams) -> float:
    """Exact integral of i d(phi_ext) along the trajectory, in cell coordinates.

    On a branch phi_ext = phi + lam*sin(2*pi*phi) - phi_fe, so
    i d(phi_ext) = dF with F(u) = -cos(2*pi*u)/(2*pi) + (lam/2)*sin(2*pi*u)**2,
    even and 1-periodic, so it reads cell roots u, never a flux rounded at ulp(k).
    A jump is vertical (fixed drive) and adds nothing, so the area is
    F(last u) - F(first u) plus F(e) - F(landing u) per jump (Branches.e).
    """
    def F(u: float) -> float:
        s = math.sin(TWO_PI * u)
        return -math.cos(TWO_PI * u) / TWO_PI + 0.5 * p.lam * s * s

    terms = [F(traj.samples[-1].u), -F(traj.samples[0].u)]
    f_end = F(_branches(p.beta).e) if traj.events else 0.0
    for e in traj.events:
        terms += (f_end, -F(traj.samples[e.landing_index].u))
    return math.fsum(terms)


def run_hysteresis(p: ReducedParams, amplitude: float, step: float) -> HysteresisLoop:
    """Drive the cycle 0 -> +amplitude -> -amplitude -> 0 and summarize it.

    Starts from the virgin state (stable root nearest phi = 0 at zero
    drive).  Returns the loop with both remnant crossings and the signed
    cycle area; for beta <= 1 the passes retrace each other and the area
    vanishes to roundoff.  With jumps the area scales as (beta - 1)**2; an
    area within the rounding of the fsum of its 2 + 2*jumps terms (each
    |F| <= 1/(2*pi) + lam/2), reached below beta - 1 of about 2e-8, raises
    NumericsError ("loop area below rounding").
    """
    if not (amplitude > 0.0 and math.isfinite(amplitude)):
        raise ValueError(f"amplitude must be positive and finite, got {amplitude}")

    schedule = SweepSchedule((0.0, amplitude, 0.0, -amplitude, 0.0), step)
    traj = run_schedule(p, schedule)
    area, jumps = loop_area(traj, p), len(traj.events)
    floor = 4 * (2 + 2 * jumps) * math.ulp(1.0 / TWO_PI + 0.5 * p.lam)
    if jumps and abs(area) <= floor:
        raise NumericsError(f"loop area below rounding at beta={p.beta!r}: "
                            f"|{area:.3e}| <= {floor:.3e} over {jumps} jumps")
    i2, i4 = traj.waypoint_indices[2], traj.waypoint_indices[4]
    return HysteresisLoop(
        remnant_up=traj.samples[i4].phi,
        remnant_down=traj.samples[i2].phi,
        loop_area=area,
        cycle=traj,
    )


def _walk(k: int, c: float, s: int, half: float) -> int:
    """Branch occupied once the total flux has moved monotonically from branch
    k to c, up for s = 1 and down for s = -1: the one fold rule of the sweep
    and both kernels, with half = Branches.half.

    Each fold crossed moves the branch by one in the drive's direction
    (resolve_jump), so the walk ends on the first branch j from k that lives
    at c, decided in j's cell: s*c - j <= half, exact by Sterbenz wherever j
    is within a factor 2 of s*c.  The model is odd, so a descending walk is an
    ascending one in -c.  The caller resolves a landing when the walk moves.
    """
    if not s * c - s * k > half:  # branch k lives: always without folds
        return k
    j = max(s * k, math.ceil(s * c - half) - 1)
    while s * c - j > half:
        j += 1
    return s * j


def _walk_fluxes(p: ReducedParams, k: int, path: Iterable[tuple[float, bool]]) -> list[float]:
    """Flux at each kept waypoint (w, kept) of a drive path from branch k at
    zero drive, without a sweep: _walk fixes the branch at each waypoint, a
    move asks for the landing (raising where a sweep's jump would), and a kept
    flux is one branch solve from the cell centre u = 0, as a sweep's."""
    half, out, prev = _branches(p.beta).half, [], 0.0
    for w, kept in path:
        c = w + p.phi_fe  # rounded as run_schedule rounds it
        j, k = k, _walk(k, c, 1 if w > prev else -1, half)
        if k != j:
            _landing(p.beta)
        if kept:
            out.append(_branch_point(c, k, p, 0.0)[0])
        prev = w
    return out


def hysteresis_remnants(p: ReducedParams,
                        amplitudes: Iterable[float]) -> list[tuple[float, float]]:
    """(remnant_down, remnant_up) of the cycle 0 -> +A -> -A -> 0 for each
    amplitude A, without a sweep: the remnants are the fluxes at the two
    zero-drive waypoints of _walk_fluxes.  The virgin state is at most three
    branch solves, whatever beta; nothing scans every root.  The result is
    run_hysteresis(p, A, step)'s for any step, bit for bit (run_schedule).
    """
    amplitudes = tuple(amplitudes)
    for amp in amplitudes:
        if not (amp > 0.0 and math.isfinite(amp)):
            raise ValueError(f"amplitude must be positive and finite, got {amp}")
        _require_finite("phi_ext + phi_fe", amp + abs(p.phi_fe))  # the larger |+/-amp + phi_fe|
    virgin = _initial_state(p, 0.0, 0.0).branch_id
    return [tuple(_walk_fluxes(p, virgin, ((amp, False), (0.0, True), (-amp, False), (0.0, True))))
            for amp in amplitudes]


def path_fluxes(p: ReducedParams, waypoints: Iterable[float]) -> list[float]:
    """Flux at each waypoint of a drive path from the virgin state at zero
    drive, without a sweep (_walk_fluxes); the virgin state is at most three
    branch solves, with no scan of every root.  The result is that of
    run_schedule over (0, *waypoints) at any step, bit for bit (run_schedule).
    """
    waypoints = tuple(waypoints)
    if not all(math.isfinite(w) for w in waypoints):
        raise ValueError(f"waypoints must be finite, got {waypoints}")
    for w in waypoints:
        _require_finite("phi_ext + phi_fe", w + p.phi_fe)
    return _walk_fluxes(p, _initial_state(p, 0.0, 0.0).branch_id, ((w, True) for w in waypoints))


def remnant_report(loop: HysteresisLoop, params: RingParams) -> RemnantReport:
    """Quantized remnant indices and the corresponding trapped fields.

    n is the nearest integer to each raw remnant flux; the reported field is
    the quantized one, n*Phi0/area_A.  The raw (unrounded) remnant fluxes
    ride along so the two are never conflated.
    """
    n_up, n_down = round(loop.remnant_up), round(loop.remnant_down)
    scale = params.Phi0 / params.area_A
    return RemnantReport(
        n_up=n_up,
        n_down=n_down,
        B_remnant_up=n_up * scale,
        B_remnant_down=n_down * scale,
        phi_up=loop.remnant_up,
        phi_down=loop.remnant_down,
    )
