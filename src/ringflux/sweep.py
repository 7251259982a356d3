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
    FixedPoint,
    NumericsError,
    Stability,
    _branch_root,
    _fold_geometry,
    classify_stability,
    find_fixed_points,  # unused: the benchmark's tracer and a test's scan counter wrap this name
)
from .ring_model import TWO_PI, ReducedParams, RingParams, _require_finite

_MAX_JUMPS_PER_STEP = 64

#: Largest total sub-step count a schedule may ask for.  Every sub-step is
#: kept as a sample (192 bytes each, by tracemalloc over a 40,004-sample
#: loop), so this bounds a sweep's memory near 0.96 GB.
MAX_SUBSTEPS = 5_000_000


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

def _on_branch(p: ReducedParams, k: int, phi_ext: float, x0: float) -> tuple[float, float]:
    """(k + u, u): branch k's root at phi_ext from the cell coordinate x0, where
    the caller found branch k; for beta <= 1 the window's root in round(c)'s cell."""
    c = phi_ext + p.phi_fe
    if p.beta <= 1.0:
        k = round(c)
    if (u := _branch_root(c - k, p, x0)) is None:
        raise NumericsError(f"branch {k} does not bracket c={c!r}")
    return k + u, u


def continue_branch(state: BranchState, phi_ext_next: float, p: ReducedParams) -> BranchState:
    """The occupied stable root moved along its own branch to the next applied
    flux, which the caller has checked lies within the branch's fold levels
    (every flux for beta <= 1); at the state's own drive, the state itself."""
    if phi_ext_next == state.phi_ext:
        return state
    phi, u = _on_branch(p, state.branch_id, phi_ext_next, state.u)
    return BranchState(phi_ext_next, phi, math.sin(TWO_PI * u), state.branch_id, u)


@functools.lru_cache(maxsize=64)
def _landing(beta: float) -> float:
    """u, the cell root of every ascending landing (descending: -u, the model is odd).

    Off the fold of branch k at c - k = s*(1/2 + w), branch k + s has the
    exact cell drive -s*(1/2 - w) whatever k and phi_fe: one solve serves every
    jump.  Its slope g' is about 3*(beta - 1): Marginal below beta - 1 of
    about 3e-10, which NumericsError names as the window below rounding."""
    p = ReducedParams(beta)
    u = _branch_root(-(0.5 - _fold_geometry(beta)[1]), p)
    if u is None or classify_stability(u, p) is not Stability.STABLE:
        raise NumericsError(f"no stable root survives a fold: hysteretic window below rounding at "
                            f"beta={beta!r} (its slope 3*(beta - 1) is under MARGINAL_TOL)")
    return u


def resolve_jump(p: ReducedParams, k: int, ascending: bool) -> tuple[float, float, FixedPoint]:
    """(drive, departing flux, landing root) of the jump off a fold of branch k.

    Branch k dies where its cell drive c - k reaches s*(1/2 + w), s = +1
    ascending and -1 descending, at its cell end u = s*(1/2 - phi_a)
    (_fold_geometry), so remnants do not depend on the sweep step.  One flux
    quantum is admitted: the state lands on branch k + s, the nearest
    surviving stable root (README, numerical notes), at the cell root
    s*_landing(beta); nothing is solved here.
    """
    (phi_a, w), s = _fold_geometry(p.beta), 1 if ascending else -1
    u = s * _landing(p.beta)
    return (k + s * (0.5 + w) - p.phi_fe, k + s * 0.5 - s * phi_a,
            FixedPoint(k + s + u, math.sin(TWO_PI * u), Stability.STABLE))


# ---------------------------------------------------------------------------
# Schedules and loops
# ---------------------------------------------------------------------------

def _initial_state(p: ReducedParams, phi_ext: float, phi_hint: float) -> BranchState:
    """The stable root nearest phi_hint (ties: smaller |i|, then smaller phi),
    with the k and u of the solve that found it: for beta <= 1 the one root,
    solved in round(c)'s cell.  For beta > 1 it is on stable branch m - 1, m
    or m + 1, m = round(phi_hint) clamped to the branches at the drive
    (README, numerical notes); if none of the three roots is STABLE (the
    Marginal corners just above beta = 1), the nearest MARGINAL one of them.
    Nothing scans every root, so u lies on its own branch's segment,
    |u| <= e = 1/2 - phi_a.
    """
    if p.beta <= 1.0:
        phi, u = _on_branch(p, 0, phi_ext, 0.0)
        return BranchState(phi_ext, phi, math.sin(TWO_PI * u), 0, u)
    c, half = phi_ext + p.phi_fe, 0.5 + _fold_geometry(p.beta)[1]  # k lives at |c - k| <= half
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
    lives while a sub-step's total flux c has |c - k| <= 1/2 + w in its cell;
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
    state = _initial_state(p, w[0], init_phi_hint)
    half = 0.5 + _fold_geometry(p.beta)[1] if p.beta > 1.0 else math.inf
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
                folds = abs(_walk(p, k, pe, s > 0) - k)
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
                phi, u = _on_branch(p, state.branch_id, pe, 0.0)
                state = BranchState(pe, phi, math.sin(TWO_PI * u), state.branch_id, u)
            samples.append(state)
        waypoint_indices.append(len(samples) - 1)

    return SweepTrajectory(tuple(samples), tuple(events), tuple(waypoint_indices))


def loop_area(traj: SweepTrajectory, p: ReducedParams) -> float:
    """Exact integral of i d(phi_ext) along the trajectory, in cell coordinates.

    On a branch phi_ext = phi + lam*sin(2*pi*phi) - phi_fe, so
    i d(phi_ext) = dF with F(u) = -cos(2*pi*u)/(2*pi) + (lam/2)*sin(2*pi*u)**2,
    even and 1-periodic, so it reads cell roots u, never a flux rounded at ulp(k).
    A jump is vertical (fixed drive) and adds nothing, so the area is
    F(last u) - F(first u) plus F(e) - F(landing u) per jump, e = 1/2 - phi_a.
    """
    def F(u: float) -> float:
        s = math.sin(TWO_PI * u)
        return -math.cos(TWO_PI * u) / TWO_PI + 0.5 * p.lam * s * s

    terms = [F(traj.samples[-1].u), -F(traj.samples[0].u)]
    f_end = F(0.5 - _fold_geometry(p.beta)[0]) if traj.events else 0.0
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


def _walk(p: ReducedParams, k: int, w: float, ascending: bool) -> int:
    """Branch occupied once the drive has moved monotonically from branch k
    to w, the one fold rule of the sweep and both kernels.

    Each fold crossed moves the branch by one in the drive's direction
    (resolve_jump), so the walk ends on the first branch j from k that lives
    at c = w + phi_fe, decided in j's cell: s*c - j <= 1/2 + w_fold, exact by
    Sterbenz wherever j is within a factor 2 of s*c.  The model is odd, so a
    descending walk is an ascending one in -c; it starts near
    ceil(c - 1/2 - w_fold).  The caller resolves a landing when the walk moves.
    """
    if p.beta <= 1.0:
        return k
    c, s = w + p.phi_fe, 1 if ascending else -1  # c rounded as run_schedule rounds it
    half = 0.5 + _fold_geometry(p.beta)[1]
    j = max(s * k, math.ceil(s * c - half) - 1)
    while s * c - j > half:
        j += 1
    return s * j


def hysteresis_remnants(p: ReducedParams,
                        amplitudes: Iterable[float]) -> list[tuple[float, float]]:
    """(remnant_down, remnant_up) of the cycle 0 -> +A -> -A -> 0 for each
    amplitude A, without a sweep.

    _walk fixes the branch at the end of each leg in closed form, and a
    remnant is one branch solve at zero drive from the cell centre u = 0, as
    a sweep solves its waypoints.  The virgin state is at most three branch
    solves, whatever beta; nothing scans every root.  The result is
    run_hysteresis(p, A, step)'s for any step, bit for bit (run_schedule).
    """
    amplitudes = tuple(amplitudes)
    for amp in amplitudes:
        if not (amp > 0.0 and math.isfinite(amp)):
            raise ValueError(f"amplitude must be positive and finite, got {amp}")
        _require_finite("phi_ext + phi_fe", amp + abs(p.phi_fe))  # the larger |+/-amp + phi_fe|
    virgin = _initial_state(p, 0.0, 0.0).branch_id
    out = []
    for amp in amplitudes:
        k, remnants = virgin, []
        for w, ascending in ((amp, True), (0.0, False), (-amp, False), (0.0, True)):
            j, k = k, _walk(p, k, w, ascending)
            if k != j:
                _landing(p.beta)  # raises where a sweep's jump would
            if w == 0.0:
                remnants.append(_on_branch(p, k, 0.0, 0.0)[0])
        out.append(tuple(remnants))
    return out


def path_fluxes(p: ReducedParams, waypoints: Iterable[float]) -> list[float]:
    """Flux at each waypoint of a drive path from the virgin state at zero
    drive, without a sweep: _walk fixes the branch at each waypoint in closed
    form, the flux there is one branch solve from the cell centre, and the
    virgin state is at most three branch solves, with no scan of every root.
    The result is that of run_schedule over (0, *waypoints) at any step, bit
    for bit (run_schedule).
    """
    waypoints = tuple(waypoints)
    if not all(math.isfinite(w) for w in waypoints):
        raise ValueError(f"waypoints must be finite, got {waypoints}")
    for w in waypoints:
        _require_finite("phi_ext + phi_fe", w + p.phi_fe)
    k = _initial_state(p, 0.0, 0.0).branch_id
    out = []
    for prev, w in zip((0.0,) + waypoints, waypoints):
        j, k = k, _walk(p, k, w, w > prev)
        if k != j:
            _landing(p.beta)
        out.append(_on_branch(p, k, w, 0.0)[0])
    return out


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
