"""Sequential game engine: event-level play and a kinematic replay oracle.

The event-level loop resolves each arrival with pure geometry (a defender at
the center always wins; a defender parked on the capture circle wins exactly
when the bearing gap is within ``theta_max``).  The kinematic integrator
replays any single game with fixed-timestep first-order motion and no
knowledge of that bookkeeping, so the two can be cross-checked game by game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .geometry import GameParams, Point2, breach_margin_point
from .strategy import (
    AtCenter,
    DefenderState,
    EngagementSolution,
    OnCaptureCircle,
    capture_circle_radius,
    capture_circle_solution,
)

_TWO_PI = 2.0 * math.pi
_BLOCK_STEPS = 4096
# Replay capture distance; verify_outcome_agreement's timestep, and the band
# around theta_max whose games it skips.
EPS_CAPTURE = 1e-3
VERIFY_DT = 1e-4
BOUNDARY_MARGIN = 1e-3


class NoTermination(RuntimeError):
    """The integrator exceeded its time horizon without a terminal event."""


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    v = a % _TWO_PI
    if v > math.pi:
        v -= _TWO_PI
    return v


def uniform_angle(seed: int, index: int) -> float:
    """Deterministic arrival angle in [-pi, pi), keyed by (seed, index).

    Counter-based (splitmix64 finalizer over a keyed counter), so draws are
    identical across platforms and independent of evaluation order.
    """
    mask = (1 << 64) - 1
    x = (seed ^ (index * 0x9E3779B97F4A7C15)) & mask
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    u = (x >> 11) / float(1 << 53)
    return -math.pi + _TWO_PI * u


class GameResult(Enum):
    CAPTURE = "capture"
    BREACH = "breach"


@dataclass(frozen=True)
class GameOutcome:
    """Resolution of a single arrival."""

    result: GameResult
    arrival_angle: float
    defender_angle_before: Optional[float]
    defender_state_after: DefenderState
    capture_point: Optional[Point2]


@dataclass(frozen=True)
class SessionRecord:
    """Capture mask of a seeded sequence of arrivals played in order.

    ``outcomes[i]`` is True when game ``i`` ended in a capture.  Replaying
    the seed through ``play_game`` gives the per-game detail.
    """

    params: GameParams
    seed: int
    outcomes: tuple[bool, ...]
    n_capture: int
    n_breach: int


def _capture_side(angle: float, theta_a: float, theta_max: float) -> Optional[float]:
    """Mirror side (+1 or -1, ties +1) on which a defender on the capture circle
    at ``angle`` captures an arrival at ``theta_a``; None when the gap is too wide."""
    delta = wrap_angle(angle - theta_a)
    if abs(delta) <= theta_max:
        return 1.0 if delta >= 0.0 else -1.0
    return None


def _next_bearing(angle: Optional[float], theta_a: float, sol: EngagementSolution) -> Optional[float]:
    """The defender's bearing after an arrival at ``theta_a``, or None on a breach.

    ``angle`` is None at the center, from where the defender always wins and
    ends at the arrival bearing.  From the capture circle it wins exactly when
    the bearing gap is within ``theta_max`` (ties included), ending at the
    evasion endpoint mirrored to its own side.
    """
    if angle is None:
        return wrap_angle(theta_a)
    s = _capture_side(angle, theta_a, sol.theta_max)
    return None if s is None else wrap_angle(theta_a + s * sol.phi)


def play_game(state: DefenderState, theta_a: float, params: GameParams) -> GameOutcome:
    """Resolve one arrival at bearing ``theta_a`` from the given defender state.

    A capture leaves the defender on the capture circle at the capture
    point; a breach sends it back to the center.
    """
    before = None if isinstance(state, AtCenter) else state.angle
    after = _next_bearing(before, theta_a, capture_circle_solution(params))
    if after is None:
        return GameOutcome(GameResult.BREACH, theta_a, before, AtCenter(), None)
    point = Point2.from_polar(capture_circle_radius(params), after)
    return GameOutcome(GameResult.CAPTURE, theta_a, before, OnCaptureCircle(after), point)


def run_session(params: GameParams, n: int, seed: int) -> SessionRecord:
    """Play ``n`` sequential games with uniform random arrivals."""
    if n < 1:
        raise ValueError(f"session length must be >= 1, got {n!r}")
    sol = capture_circle_solution(params)
    angle: Optional[float] = None
    outcomes = []
    for i in range(n):
        angle = _next_bearing(angle, uniform_angle(seed, i), sol)
        outcomes.append(angle is not None)
    n_capture = sum(outcomes)
    return SessionRecord(params, seed, tuple(outcomes), n_capture, n - n_capture)


class Phase(Enum):
    PARTIAL = "partial"
    FULL = "full"


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    x_a: Point2
    x_d: Point2
    phase: Phase


@dataclass(frozen=True)
class CaptureAt:
    point: Point2


@dataclass(frozen=True)
class BreachAt:
    point: Point2


Terminal = Union[CaptureAt, BreachAt]


@dataclass(frozen=True)
class Trajectory:
    dt: float
    samples: tuple[TrajectorySample, ...]
    terminal: Terminal


def to_world(p: Point2, theta_a: float, mirror: float) -> Point2:
    """Map a canonical-frame point into the world frame of a game."""
    return Point2(p.x, mirror * p.y).rotated(theta_a)


def _approach(pos: np.ndarray, target: np.ndarray, speed: float, trel: np.ndarray) -> np.ndarray:
    """Straight-line positions toward ``target``, stopping on arrival."""
    d = target - pos
    dist = math.hypot(d[0], d[1])
    if dist == 0.0:
        return np.broadcast_to(pos, (trel.size, 2)).copy()
    travel = np.minimum(speed * trel, dist)
    return pos[None, :] + (d / dist)[None, :] * travel[:, None]


def simulate_kinematic(
    state: DefenderState,
    theta_a: float,
    params: GameParams,
    dt: Optional[float] = None,
    eps_capture: float = EPS_CAPTURE,
    record_every: Optional[int] = 1,
) -> Trajectory:
    """Replay one game with fixed-timestep first-order kinematics.

    The intruder runs radially inward until the defender enters its sensing
    radius, then commits to a straight line: the evasion endpoint if it is
    doomed, its best breaching point otherwise.  The defender walks its
    event-level route (engagement point, hold, pursue; or straight home).
    Terminates on contact within ``eps_capture`` or on the intruder reaching
    the target boundary.  ``record_every=None`` keeps only the endpoints.
    """
    if dt is None:
        dt = 1e-4 * params.tsr_radius
    if not (0.0 < dt < math.inf and 0.0 < eps_capture < math.inf):
        raise ValueError("dt and eps_capture must be positive and finite")

    r_cc = capture_circle_radius(params)
    u = Point2.from_polar(1.0, theta_a)
    xa = np.array([params.tsr_radius * u.x, params.tsr_radius * u.y])

    if isinstance(state, AtCenter):
        capture_bound = True
        xd = np.zeros(2)
        hold_radius = params.r_t - params.rho_a / (1.0 + params.nu)
        waypoint = np.array([hold_radius * u.x, hold_radius * u.y])
        dest_pt = Point2.from_polar(r_cc, theta_a)
    else:
        sol = capture_circle_solution(params)
        mirror = _capture_side(state.angle, theta_a, sol.theta_max)
        capture_bound = mirror is not None
        xd = np.array([r_cc * math.cos(state.angle), r_cc * math.sin(state.angle)])
        if capture_bound:
            eng = to_world(sol.candidate.x_d_eng, theta_a, mirror)
            waypoint = np.array([eng.x, eng.y])
            dest_pt = to_world(sol.x_p, theta_a, mirror)
        else:
            waypoint = np.zeros(2)
            dest_pt = None

    dest = None if dest_pt is None else np.array([dest_pt.x, dest_pt.y])
    origin = np.zeros(2)

    phase = Phase.PARTIAL
    intruder_target = origin  # radial run; breach fires long before the center
    defender_target = waypoint

    samples: list[TrajectorySample] = []

    def record(step: int, a: np.ndarray, d: np.ndarray, ph: Phase) -> None:
        samples.append(
            TrajectorySample(
                step * dt,
                Point2(float(a[0]), float(a[1])),
                Point2(float(d[0]), float(d[1])),
                ph,
            )
        )

    record(0, xa, xd, phase)
    step = 0
    max_steps = int(math.ceil(10.0 * params.tsr_radius / dt))
    terminal: Optional[Terminal] = None

    while terminal is None:
        if step >= max_steps:
            raise NoTermination(
                f"no terminal event within {max_steps} steps (t={step * dt!r})"
            )
        k = min(_BLOCK_STEPS, max_steps - step)
        trel = dt * np.arange(1, k + 1)
        a_blk = _approach(xa, intruder_target, params.nu, trel)
        d_blk = _approach(xd, defender_target, 1.0, trel)
        sep = np.hypot(a_blk[:, 0] - d_blk[:, 0], a_blk[:, 1] - d_blk[:, 1])
        r_a = np.hypot(a_blk[:, 0], a_blk[:, 1])

        event = None  # (index, kind); capture beats breach beats detection on ties
        if phase is Phase.FULL and capture_bound:
            hits = np.nonzero(sep <= eps_capture)[0]
            if hits.size:
                event = (int(hits[0]), "capture")
        hits = np.nonzero(r_a <= params.r_t)[0]
        if hits.size and (event is None or int(hits[0]) < event[0]):
            event = (int(hits[0]), "breach")
        if phase is Phase.PARTIAL:
            hits = np.nonzero(sep <= params.rho_a)[0]
            if hits.size and (event is None or int(hits[0]) < event[0]):
                event = (int(hits[0]), "detect")

        stop = k - 1 if event is None else event[0]
        if record_every is not None:
            for j in range(stop + 1):
                if (step + j + 1) % record_every == 0:
                    record(step + j + 1, a_blk[j], d_blk[j], phase)
        xa = a_blk[stop].copy()
        xd = d_blk[stop].copy()
        step += stop + 1

        if event is None:
            continue
        kind = event[1]
        if kind == "capture":
            terminal = CaptureAt(
                Point2(float(0.5 * (xa[0] + xd[0])), float(0.5 * (xa[1] + xd[1])))
            )
        elif kind == "breach":
            terminal = BreachAt(Point2(float(xa[0]), float(xa[1])))
        else:
            phase = Phase.FULL
            if capture_bound:
                intruder_target = dest
                defender_target = dest
            else:
                _, aim = breach_margin_point(
                    Point2(float(xa[0]), float(xa[1])),
                    Point2(float(xd[0]), float(xd[1])),
                    params,
                )
                intruder_target = np.array([aim.x, aim.y])

    last = samples[-1]
    if last.t != step * dt or record_every is None:
        record(step, xa, xd, phase)
    return Trajectory(dt=dt, samples=tuple(samples), terminal=terminal)


@dataclass(frozen=True)
class AgreementReport:
    """Comparison of event-level verdicts against kinematic replays."""

    n_games: int
    n_compared: int
    n_boundary_skipped: int
    n_mismatches: int
    max_capture_point_error: float
    max_circle_distance: float
    max_breach_defender_offset: float

    @property
    def all_agree(self) -> bool:
        return self.n_mismatches == 0


def verify_outcome_agreement(
    params: GameParams,
    n_games: int,
    seed: int,
    dt: float = VERIFY_DT,
    eps_capture: float = EPS_CAPTURE,
) -> AgreementReport:
    """Replay a seeded session kinematically and compare verdicts.

    Games whose bearing gap sits within ``BOUNDARY_MARGIN`` of the capture
    threshold are skipped (the discrete integrator may legitimately land on
    either side there); everything else must agree.
    """
    if n_games < 1:
        raise ValueError(f"n_games must be >= 1, got {n_games!r}")
    sol = capture_circle_solution(params)
    r_cc = capture_circle_radius(params)
    state: DefenderState = AtCenter()
    n_boundary = 0
    n_compared = 0
    n_mismatch = 0
    max_pt_err = 0.0
    max_circ = 0.0
    max_home = 0.0
    for i in range(n_games):
        theta_a = uniform_angle(seed, i)
        outcome = play_game(state, theta_a, params)
        near_boundary = False
        if isinstance(state, OnCaptureCircle):
            gap = abs(wrap_angle(state.angle - theta_a))
            near_boundary = abs(gap - sol.theta_max) < BOUNDARY_MARGIN
        if near_boundary:
            n_boundary += 1
        else:
            traj = simulate_kinematic(
                state, theta_a, params, dt=dt, eps_capture=eps_capture,
                record_every=None,
            )
            n_compared += 1
            kin_capture = isinstance(traj.terminal, CaptureAt)
            if kin_capture != (outcome.result is GameResult.CAPTURE):
                n_mismatch += 1
            elif kin_capture:
                err = traj.terminal.point.distance_to(outcome.capture_point)
                max_pt_err = max(max_pt_err, err)
                max_circ = max(max_circ, abs(traj.terminal.point.norm() - r_cc))
            else:
                home = traj.samples[-1].x_d.norm()
                max_home = max(max_home, home)
        state = outcome.defender_state_after
    return AgreementReport(
        n_games=n_games,
        n_compared=n_compared,
        n_boundary_skipped=n_boundary,
        n_mismatches=n_mismatch,
        max_capture_point_error=max_pt_err,
        max_circle_distance=max_circ,
        max_breach_defender_offset=max_home,
    )
