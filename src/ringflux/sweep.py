"""Quasi-static continuation of the occupied flux state under a varying drive.

A sweep follows the stable root of the flux balance as the applied flux
moves through a schedule of waypoints.  While the occupied stable branch
exists the state tracks it continuously; when the drive crosses a fold the
branch vanishes and the state jumps to the neighbouring branch in the
drive's direction ("the flux quantum is admitted").  A branch of the
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
    DEFAULT_ROOT_TOL,
    WINDOW_MARGIN,
    FixedPoint,
    NumericsError,
    Stability,
    _bracketed_newton,
    _branch_root,
    _partition_roots,
    _scan_boundaries,
    branch_flux_range,
    branch_index,
    find_fixed_points,  # noqa: F401  unused: the benchmark's tracer wraps it here
    stable_branch_interval,
)
from .ring_model import TWO_PI, ReducedParams, RingParams

_MAX_JUMPS_PER_STEP = 64

#: Largest total sub-step count a schedule may ask for.  Every sub-step is
#: kept as a sample (about 184 bytes each), so this bounds a sweep's memory
#: near 0.9 GB.
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


@dataclass(frozen=True)
class BranchState:
    """Occupied stable fixed point during a sweep; also one trajectory sample."""

    phi_ext: float
    phi: float
    i: float
    branch_id: int


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

def _solve_on_branch(p: ReducedParams, k: int, c: float, x0: float) -> float:
    """Root of phi + lam*sin(2*pi*phi) = c on the (monotone) branch segment.

    This is the flux balance phi = c - lam*sin(2*pi*phi) with
    c = phi_ext + phi_fe, whose slope 1 + beta*cos(2*pi*phi) is positive
    inside stable branch k.  The bracketed Newton solve of find_fixed_points
    runs from x0 and ends on the root's canonical float, the same for every
    start except where g flips sign at rounding level over a few floats.
    The root is accepted at |g| <= DEFAULT_ROOT_TOL * max(1, |phi|), as
    find_fixed_points accepts it.
    """
    lam, beta = p.lam, p.beta
    a, b = (stable_branch_interval(k, beta) if beta > 1.0  # else the root window
            else (c - lam - WINDOW_MARGIN, c + lam + WINDOW_MARGIN))

    def f(x: float) -> float:
        return x - c + lam * math.sin(TWO_PI * x)

    fa, fb = f(a), f(b)
    # at a fold level the root is the segment end itself (the tangency),
    # where rounding may leave the residual of the wrong sign.  This band
    # stays absolute: a drive inside it has its root about sqrt(band) from
    # the end, so a band growing with |phi| would snap roots off their place
    if 0.0 <= fa <= DEFAULT_ROOT_TOL:
        return a
    if -DEFAULT_ROOT_TOL <= fb <= 0.0:
        return b
    if fa > 0.0 or fb < 0.0:
        raise NumericsError(
            f"branch {k} does not bracket c={c!r} (f(a)={fa:.3e}, f(b)={fb:.3e})")
    x, fx = _bracketed_newton(f, lambda x: 1.0 + beta * math.cos(TWO_PI * x),
                              a, b, fa, fb, x0)
    tol = DEFAULT_ROOT_TOL * max(1.0, abs(x))
    if abs(fx) > tol:
        raise NumericsError(f"branch solve stalled at |g|={abs(fx):.3e} > {tol:.3e}")
    return x


def continue_branch(state: BranchState, phi_ext_next: float, p: ReducedParams) -> BranchState:
    """The occupied stable root moved along its own branch to the next applied
    flux, which the caller has checked lies within the branch's fold levels
    (every flux for beta <= 1); at the state's own drive, the state itself."""
    if phi_ext_next == state.phi_ext:
        return state
    phi = _solve_on_branch(p, state.branch_id, phi_ext_next + p.phi_fe, state.phi)
    return BranchState(phi_ext_next, phi, math.sin(TWO_PI * phi), state.branch_id)


def resolve_jump(p: ReducedParams, k: int, ascending: bool) -> tuple[float, float, FixedPoint]:
    """(drive, departing flux, landing root) of the jump off a fold of branch k.

    Branch k dies at its fold level in the drive's direction
    (branch_flux_range), at that end of stable_branch_interval, so remnants
    do not depend on the sweep step.  One flux quantum is admitted: the
    state lands on branch k + 1 ascending and k - 1 descending, the nearest
    surviving stable root (README, numerical notes), solved on that one
    segment as find_fixed_points solves it.  Its slope g' is about
    3*(beta - 1): Marginal below beta - 1 of about 3e-10, which
    NumericsError names as the window below rounding.
    """
    end = 1 if ascending else 0
    phi_ext = branch_flux_range(k, p.beta)[end] - p.phi_fe
    landing = _branch_root(phi_ext, k + (1 if ascending else -1), p)
    if landing is None or landing.stability is not Stability.STABLE:
        raise NumericsError(
            f"no stable root survives the fold at phi_ext={phi_ext!r}: "
            f"hysteretic window below rounding at beta={p.beta!r} (the landing "
            f"slope 3*(beta - 1) is under MARGINAL_TOL)")
    return phi_ext, stable_branch_interval(k, p.beta)[end], landing


# unused: only the benchmark's tracer reads this name, which it still wraps
refine_fold = resolve_jump


# ---------------------------------------------------------------------------
# Schedules and loops
# ---------------------------------------------------------------------------

def _initial_state(p: ReducedParams, phi_ext: float, phi_hint: float) -> BranchState:
    """The stable root nearest phi_hint (ties: smaller |i|, then smaller phi),
    from find_fixed_points' partition solved only over the three periods that
    hold it (_scan_boundaries), at a cost that does not grow with beta."""
    roots = _partition_roots(phi_ext, p, _scan_boundaries(phi_ext + p.phi_fe, p, phi_hint))
    stable = ([r for r in roots if r.stability is Stability.STABLE]
              # beta == 1 tangency corner: accept the marginal root
              or [r for r in roots if r.stability is Stability.MARGINAL])
    if not stable:
        raise NumericsError(f"no stable root at phi_ext={phi_ext!r}")
    pick = min(stable, key=lambda r: (abs(r.phi - phi_hint), abs(r.i), r.phi))
    return BranchState(phi_ext, pick.phi, pick.i, branch_index(pick.phi, p.beta))


def run_schedule(p: ReducedParams, schedule: SweepSchedule,
                 init_phi_hint: float = 0.0) -> SweepTrajectory:
    """Sweep the applied flux through the schedule, recording every sub-step.

    The sweep starts on the stable root nearest `init_phi_hint` at the first
    waypoint (the virgin state for hysteresis runs).  While a sub-step's
    total flux c is past a fold level of the occupied branch, resolve_jump
    moves the state to the next branch; then it continues along its branch.
    Every sub-step and every jump landing is a sample, a stable fixed point.
    """
    if not math.isfinite(init_phi_hint):
        raise ValueError(f"init_phi_hint must be finite, got {init_phi_hint}")
    w = schedule.waypoints
    state = _initial_state(p, w[0], init_phi_hint)
    samples = [state]
    events: list[JumpEvent] = []
    waypoint_indices = [0]

    for w0, w1 in zip(w, w[1:]):
        nsub = max(1, math.ceil(abs(w1 - w0) / schedule.step))
        delta = (w1 - w0) / nsub
        for j in range(1, nsub + 1):
            pe = w1 if j == nsub else w0 + j * delta
            c = pe + p.phi_fe
            for _ in range(_MAX_JUMPS_PER_STEP):
                if pe == state.phi_ext or p.beta <= 1.0:
                    break
                c_lo, c_hi = branch_flux_range(state.branch_id, p.beta)
                if c_lo <= c <= c_hi:
                    break
                at, before, landing = resolve_jump(p, state.branch_id, c > c_hi)
                state = BranchState(at, landing.phi, landing.i,
                                    branch_index(landing.phi, p.beta))
                samples.append(state)
                events.append(JumpEvent(at, before, landing.phi, len(samples) - 1))
            else:
                raise NumericsError(
                    f"more than {_MAX_JUMPS_PER_STEP} folds inside one sub-step; "
                    f"step {schedule.step} is too coarse")
            nxt = continue_branch(state, pe, p)
            if nxt is not state:  # else a jump landed exactly on this drive
                state = nxt
                samples.append(state)
        waypoint_indices.append(len(samples) - 1)

    return SweepTrajectory(tuple(samples), tuple(events), tuple(waypoint_indices))


def loop_area(traj: SweepTrajectory, p: ReducedParams) -> float:
    """Exact integral of i d(phi_ext) along the trajectory.

    On a branch phi_ext = phi + lam*sin(2*pi*phi) - phi_fe, so
    i d(phi_ext) = dF with F(phi) = -cos(2*pi*phi)/(2*pi) + (lam/2)*sin(2*pi*phi)**2.
    A jump is vertical (fixed drive) and adds nothing, so the area is
    F(last) - F(first) plus F(phi_before) - F(phi_after) for every jump.
    """
    def F(phi: float) -> float:
        s = math.sin(TWO_PI * phi)
        return -math.cos(TWO_PI * phi) / TWO_PI + 0.5 * p.lam * s * s

    terms = [F(traj.samples[-1].phi), -F(traj.samples[0].phi)]
    for e in traj.events:
        terms += (F(e.phi_before), -F(e.phi_after))
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
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")

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


@functools.lru_cache(maxsize=64)
def _check_landing(p: ReducedParams) -> None:
    """Resolve the jump off branch 0's fold, which stands for all folds, at p's own drive
    (its rounding decides a Marginal landing), so a walk raises where a sweep would."""
    resolve_jump(p, 0, True)


def _walk(p: ReducedParams, k: int, w: float, ascending: bool) -> int:
    """Branch occupied once the drive has moved monotonically from branch k
    to w, without a sweep.

    Each fold crossed moves the branch by one in the drive's direction
    (resolve_jump), so the walk ends on the first branch from k whose fold
    level c = w + phi_fe does not pass: about ceil(c - 1/2 - w_fold), then
    settled by run_schedule's comparison with branch_flux_range.  The
    model is odd, so a descending walk is an ascending one in -c.
    """
    if p.beta <= 1.0:
        return k
    c, s = w + p.phi_fe, 1 if ascending else -1  # c rounded as run_schedule rounds it
    j = max(s * k, math.ceil(s * c - branch_flux_range(0, p.beta)[1]) - 1)
    while s * c > branch_flux_range(j, p.beta)[1]:
        j += 1
    if j != s * k:
        _check_landing(p)
    return s * j


def hysteresis_remnants(p: ReducedParams,
                        amplitudes: Iterable[float]) -> list[tuple[float, float]]:
    """(remnant_down, remnant_up) of the cycle 0 -> +A -> -A -> 0 for each
    amplitude A, without a sweep.

    _walk fixes the branch at the end of each leg in closed form, and a
    remnant is one branch solve at zero drive.  The virgin state solves
    three periods of the partition, whatever beta; nothing scans every root.
    The result is run_hysteresis(p, A, step)'s for any step, up to the last
    bits of the branch solve, which starts here from the fluxoid k instead
    of from the previous sample.
    """
    amplitudes = tuple(amplitudes)
    for amp in amplitudes:
        if not (amp > 0.0 and math.isfinite(amp)):
            raise ValueError(f"amplitude must be positive and finite, got {amp}")
    virgin = _initial_state(p, 0.0, 0.0).branch_id
    out = []
    for amp in amplitudes:
        k = _walk(p, _walk(p, virgin, amp, True), 0.0, False)
        down = _solve_on_branch(p, k, p.phi_fe, float(k))
        k = _walk(p, _walk(p, k, -amp, False), 0.0, True)
        out.append((down, _solve_on_branch(p, k, p.phi_fe, float(k))))
    return out


def path_fluxes(p: ReducedParams, waypoints: Iterable[float]) -> list[float]:
    """Flux at each waypoint of a drive path from the virgin state at zero
    drive, without a sweep: _walk fixes the branch at each waypoint in closed
    form, the flux there is one branch solve, and the virgin state solves
    three periods of the partition, with no scan of every root.  The result
    is that of run_schedule over (0, *waypoints) at any step, on the same
    branch and up to the last bits of the solve.
    """
    waypoints = tuple(waypoints)
    if not all(math.isfinite(w) for w in waypoints):
        raise ValueError(f"waypoints must be finite, got {waypoints}")
    k = _initial_state(p, 0.0, 0.0).branch_id
    out = []
    for prev, w in zip((0.0,) + waypoints, waypoints):
        k = _walk(p, k, w, w > prev)
        out.append(_solve_on_branch(p, k, w + p.phi_fe, float(k)))
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
