"""Quasi-static continuation of the occupied flux state under a varying drive.

A sweep follows the stable root of the flux balance as the applied flux
moves through a schedule of waypoints.  While the occupied stable branch
exists the state tracks it continuously; when the drive crosses a fold the
branch vanishes and the state jumps to the nearest surviving stable root
("the flux quantum is admitted").  A branch of the sinusoidal relation
ends at an analytic tangency, so a fold is placed there directly, not
searched for; remnant values therefore do not depend on the step size.

Hysteresis loops run the cycle 0 -> +amplitude -> -amplitude -> 0 and
report the two zero-drive crossings (descending and ascending remnants)
plus the signed loop area of the (phi_ext, i) cycle as traversed.  Along a
branch i d(phi_ext) is an exact differential and a jump adds no area, so
the area is evaluated in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

from .fixed_points import (
    DEFAULT_ROOT_TOL,
    WINDOW_MARGIN,
    FixedPoint,
    NumericsError,
    Stability,
    _bracketed_newton,
    branch_flux_range,
    branch_index,
    find_fixed_points,
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
class FoldSignal:
    """Raised state of a continuation step that lost its branch.

    The bracket [phi_ext_last_good, phi_ext_first_bad] contains the fold.
    refine_fold() fills in the refined fields (phi_ext_at_jump, phi_before).
    """

    phi_ext_last_good: float
    phi_ext_first_bad: float
    phi_last_good: float
    branch_id: int
    ascending: bool
    phi_ext_at_jump: float | None = None
    phi_before: float | None = None
    fold_refined: bool = False


@dataclass(frozen=True)
class JumpEvent:
    """One branch loss: drive value, departing and landing flux."""

    phi_ext_at_jump: float
    phi_before: float
    phi_after: float
    fold_refined: bool
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

def _branch_bounds(p: ReducedParams, k: int, c: float) -> tuple[float, float]:
    """Flux interval on which the occupied branch is solved."""
    if p.beta > 1.0:
        return stable_branch_interval(k, p.beta)
    return c - p.lam - WINDOW_MARGIN, c + p.lam + WINDOW_MARGIN


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
    a, b = _branch_bounds(p, k, c)

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


def continue_branch(state: BranchState, phi_ext_next: float,
                    p: ReducedParams) -> BranchState | FoldSignal:
    """Advance the occupied stable root to the next applied flux.

    Returns the new BranchState while the occupied branch still exists at
    phi_ext_next (the stable root nearest the current flux), otherwise a
    FoldSignal bracketing the drive value at which the branch vanishes.
    For beta <= 1 the branch exists for every drive, so a fold is never
    signalled.
    """
    if phi_ext_next == state.phi_ext:
        return state
    c_next = phi_ext_next + p.phi_fe
    if p.beta > 1.0:
        c_lo, c_hi = branch_flux_range(state.branch_id, p.beta)
        if not c_lo <= c_next <= c_hi:
            return FoldSignal(
                phi_ext_last_good=state.phi_ext,
                phi_ext_first_bad=phi_ext_next,
                phi_last_good=state.phi,
                branch_id=state.branch_id,
                ascending=phi_ext_next > state.phi_ext,
            )
    phi = _solve_on_branch(p, state.branch_id, c_next, state.phi)
    return BranchState(phi_ext_next, phi, math.sin(TWO_PI * phi), state.branch_id)


def refine_fold(fold: FoldSignal, p: ReducedParams) -> FoldSignal:
    """Place the fold at the analytic tangency that ends the branch.

    Branch k dies at the total-flux level k + c_hi (ascending) or k + c_lo
    (descending) of branch_flux_range, with the flux at the segment end of
    stable_branch_interval; the jump leaves from exactly there, which makes
    remnants independent of the sweep step.  The tangency is checked to lie
    inside the signal's bracket; if it does not, the jump is taken from the
    last surviving state and the result is marked fold_refined=False.
    """
    if fold.fold_refined:
        return fold
    c_lo, c_hi = branch_flux_range(fold.branch_id, p.beta)
    seg_lo, seg_hi = stable_branch_interval(fold.branch_id, p.beta)
    if fold.ascending:
        c_fold, phi_fold = c_hi, seg_hi
    else:
        c_fold, phi_fold = c_lo, seg_lo
    # compare in total flux, rounded as continue_branch rounds it
    c_good = fold.phi_ext_last_good + p.phi_fe
    c_bad = fold.phi_ext_first_bad + p.phi_fe
    if min(c_good, c_bad) <= c_fold <= max(c_good, c_bad):
        return replace(fold, phi_ext_at_jump=c_fold - p.phi_fe, phi_before=phi_fold,
                       fold_refined=True)
    return replace(fold, phi_ext_at_jump=fold.phi_ext_last_good,
                   phi_before=fold.phi_last_good, fold_refined=False)


def resolve_jump(fold: FoldSignal, p: ReducedParams) -> FixedPoint:
    """Stable root the system falls onto when the occupied branch vanishes.

    Among all stable roots at the fold drive, excluding the vanishing
    branch, picks the one nearest in flux to the departing state; ties break
    toward smaller |i|, then smaller phi.  A stable root always survives a
    fold, but its slope g' is about 3*(beta - 1): below beta - 1 of about
    3e-10 it is Marginal, and below about 1e-10 the window itself is under
    the rounding of the fold level.  NumericsError then names the window
    below rounding.
    """
    if fold.phi_ext_at_jump is None:
        fold = refine_fold(fold, p)
    roots = find_fixed_points(fold.phi_ext_at_jump, p)
    candidates = [
        r for r in roots
        if r.stability is Stability.STABLE
        and branch_index(r.phi, p.beta) != fold.branch_id
    ]
    if not candidates:
        raise NumericsError(
            f"no stable root survives the fold at phi_ext={fold.phi_ext_at_jump!r}: "
            f"hysteretic window below rounding at beta={p.beta!r} (the landing "
            f"slope 3*(beta - 1) is under MARGINAL_TOL)")
    phi_before = fold.phi_before
    return min(candidates, key=lambda r: (abs(r.phi - phi_before), abs(r.i), r.phi))


# ---------------------------------------------------------------------------
# Schedules and loops
# ---------------------------------------------------------------------------

def _initial_state(p: ReducedParams, phi_ext: float, phi_hint: float) -> BranchState:
    roots = find_fixed_points(phi_ext, p)
    stable = [r for r in roots if r.stability is Stability.STABLE]
    if not stable:  # beta == 1 tangency corner: accept the marginal root
        stable = [r for r in roots if r.stability is Stability.MARGINAL]
    if not stable:
        raise NumericsError(f"no stable root at phi_ext={phi_ext!r}")
    pick = min(stable, key=lambda r: (abs(r.phi - phi_hint), abs(r.i), r.phi))
    return BranchState(phi_ext, pick.phi, pick.i, branch_index(pick.phi, p.beta))


def run_schedule(p: ReducedParams, schedule: SweepSchedule,
                 init_phi_hint: float = 0.0) -> SweepTrajectory:
    """Sweep the applied flux through the schedule, recording every sub-step.

    The sweep starts on the stable root nearest `init_phi_hint` at the first
    waypoint (the virgin state for hysteresis runs).  Samples are appended
    at every sub-step and at every jump landing; each sample is a stable
    fixed point at its drive value.
    """
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
            for _ in range(_MAX_JUMPS_PER_STEP):
                nxt = continue_branch(state, pe, p)
                if nxt is state:
                    break  # a jump landed exactly on this sub-step's drive
                if isinstance(nxt, BranchState):
                    state = nxt
                    samples.append(state)
                    break
                fold = refine_fold(nxt, p)
                landing = resolve_jump(fold, p)
                state = BranchState(fold.phi_ext_at_jump, landing.phi, landing.i,
                                    branch_index(landing.phi, p.beta))
                samples.append(state)
                events.append(JumpEvent(fold.phi_ext_at_jump, fold.phi_before,
                                        landing.phi, fold.fold_refined,
                                        landing_index=len(samples) - 1))
            else:
                raise NumericsError(
                    f"more than {_MAX_JUMPS_PER_STEP} folds inside one sub-step; "
                    f"step {schedule.step} is too coarse")
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


def _landing_shift(p: ReducedParams) -> int:
    """Branch-index change of a jump off an ascending fold.

    The model is integer-periodic in the drive, so the jump off branch k
    lands on k + shift for every k; the shift is read off one resolve_jump
    from the analytic fold of branch 0, placed as refine_fold places it.
    The model is odd, so a jump off a descending fold moves k by -shift.
    """
    _, c_fold = branch_flux_range(0, p.beta)
    phi_fold = stable_branch_interval(0, p.beta)[1]
    w = c_fold - p.phi_fe
    fold = FoldSignal(w, w, phi_fold, 0, True,
                      phi_ext_at_jump=w, phi_before=phi_fold, fold_refined=True)
    shift = branch_index(resolve_jump(fold, p).phi, p.beta)
    if shift <= 0:
        raise NumericsError(f"jump off the ascending fold at phi_ext={w!r} lands on "
                            f"branch {shift}, not past branch 0")
    return shift


def _walk(p: ReducedParams, k: int, w: float, ascending: bool,
          shift: Callable[[], int]) -> int:
    """Branch occupied once the drive has moved monotonically from branch k
    to w, without a sweep.

    Fold-to-fold continuation: between folds the occupied state is fixed by
    its branch index k, the fold levels are analytic (branch_flux_range) and
    a jump moves k by shift() ascending and -shift() descending (the
    _landing_shift of the call, asked for once a fold is first crossed).
    The cost grows with the number of folds, not with the excursion/step.
    """
    if p.beta <= 1.0:
        return k
    c = w + p.phi_fe  # rounded as continue_branch rounds it
    while True:
        c_lo, c_hi = branch_flux_range(k, p.beta)
        gap = c - c_hi if ascending else c - c_lo
        if (gap <= 0.0) if ascending else (gap >= 0.0):
            return k
        s = shift() if ascending else -shift()
        # at least gap/s folds remain: skipping all but the last one or two
        # (with a relative margin for the rounding of gap, which matters once
        # ulp(c) nears 1) leaves them to the exact comparison above, so a
        # huge excursion costs a few passes
        k += s * max(1, int(gap / s * (1.0 - 1e-12)) - 1)


def hysteresis_remnants(p: ReducedParams,
                        amplitudes: Iterable[float]) -> list[tuple[float, float]]:
    """(remnant_down, remnant_up) of the cycle 0 -> +A -> -A -> 0 for each
    amplitude A, without a sweep.

    _walk fixes the branch at the end of each leg, and a remnant is one
    branch solve at zero drive.  The result is that of
    run_hysteresis(p, A, step).remnant_down/.remnant_up for any step, up to
    the last bits of the branch solve, which starts here from the fluxoid k
    instead of from the previous sample.
    """
    amplitudes = tuple(amplitudes)
    for amp in amplitudes:
        if not (amp > 0.0 and math.isfinite(amp)):
            raise ValueError(f"amplitude must be positive and finite, got {amp}")
    virgin = _initial_state(p, 0.0, 0.0).branch_id
    shift = functools.cache(lambda: _landing_shift(p))
    out = []
    for amp in amplitudes:
        k = _walk(p, _walk(p, virgin, amp, True, shift), 0.0, False, shift)
        down = _solve_on_branch(p, k, p.phi_fe, float(k))
        k = _walk(p, _walk(p, k, -amp, False, shift), 0.0, True, shift)
        out.append((down, _solve_on_branch(p, k, p.phi_fe, float(k))))
    return out


def path_fluxes(p: ReducedParams, waypoints: Iterable[float]) -> list[float]:
    """Flux at each waypoint of a drive path from the virgin state at zero
    drive, without a sweep: _walk fixes the branch at each waypoint, and the
    flux there is one branch solve.  The result is that of run_schedule over
    (0, *waypoints) at any step, on the same branch and up to the last bits
    of the solve.
    """
    waypoints = tuple(waypoints)
    if not all(math.isfinite(w) for w in waypoints):
        raise ValueError(f"waypoints must be finite, got {waypoints}")
    k = _initial_state(p, 0.0, 0.0).branch_id
    shift = functools.cache(lambda: _landing_shift(p))
    out = []
    for prev, w in zip((0.0,) + waypoints, waypoints):
        k = _walk(p, k, w, w > prev, shift)
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
