"""Sequential game engine: event-level play and a kinematic replay oracle.

The event-level loop resolves each arrival with pure geometry (a defender at
the center always wins; a defender parked on the capture circle wins exactly
when the bearing gap is within ``theta_max``).  The kinematic replay plays
any single game on its exact piecewise-linear paths with no knowledge of that
bookkeeping, so the two can be cross-checked game by game.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .geometry import GameParams, first_entry
from .strategy import capture_circle_radius, capture_circle_solution

_TWO_PI = 2.0 * math.pi
# The replay's contact distance, relative to 1 + r_cc: exact walks meet
# exactly, so it only absorbs rounding.
CONTACT_SLACK = 1e-9
# The band around theta_max whose games verify_outcome_agreement skips.
BOUNDARY_MARGIN = 1e-3
# Largest capture-point error between replay and event-level game that verify accepts.
MAX_DISCREPANCY = 5e-3
# Most samples one replay may be sampled at; it bounds a trace's run length and file size.
MAX_TRACE_SAMPLES = 1_000_000


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


# Arrivals hashed per block by _uniform_angles: a session is drawn and played a block at a time.
_HASH_BLOCK = 4096


@lru_cache(maxsize=2)
def _lanes(k: int) -> tuple[int, int, int]:
    """``ones``, ``mask`` and ``steps`` for ``k`` 128-bit lanes of one int.

    Lane ``j`` of ``ones`` is 1 and of ``mask`` is ``2**64 - 1``; lane ``j``
    of ``steps`` is ``j * 0x9E3779B97F4A7C15`` modulo 2**64.  A session uses
    at most two block lengths, the full block and its remainder.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * k, "little")
    counters = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(k)), "little")
    return ones, mask, (counters * 0x9E3779B97F4A7C15) & mask


def _uniform_angles(seed: int, n: int) -> Iterator[float]:
    """``uniform_angle(seed, i)`` for ``i`` in ``range(n)``, hashed a block at a time.

    Each block runs splitmix64 on its counters at once, as the 128-bit lanes
    of one int: a lane holds below 2**64 before every multiply, so its
    product stays within the lane, and ``& mask`` then reduces each lane
    modulo 2**64 as the scalar's ``& mask`` does.  The shifted copies are
    masked too, since a right shift moves each lane's low bits into the top
    of the lane below.  The low 64 bits of each lane are read back through
    ``array('Q')`` in little-endian order.
    """
    mask64 = (1 << 64) - 1
    seed &= mask64
    lo, scale = -math.pi, _TWO_PI / float(1 << 53)
    for start in range(0, n, _HASH_BLOCK):
        k = min(_HASH_BLOCK, n - start)
        ones, mask, steps = _lanes(k)
        x = ((steps + ones * ((start * 0x9E3779B97F4A7C15) & mask64)) & mask) ^ (ones * seed)
        x = (x + ones * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ ((x >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ ((x >> 27) & mask)) * 0x94D049BB133111EB) & mask
        # Each lane's top half takes the next lane's low bits here, but the
        # shift by 11 leaves them above the low 64 bits that are read.
        x = (x ^ (x >> 31)) >> 11
        words = array("Q", x.to_bytes(16 * k, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        # (x >> 11) / 2**53 is exact, so scaling 2 pi by 2**-53 first gives the scalar's bits.
        yield from [lo + scale * v for v in words[::2]]


class SessionRecord(NamedTuple):
    """Capture mask of a seeded sequence of arrivals played in order.

    ``outcomes[i]`` is True when ``play_game`` returns a bearing for game
    ``i``.  Replaying the seed through ``play_game`` from None, carrying each
    returned bearing, gives the per-game detail.
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


def _next_bearing(angle: Optional[float], theta_a: float, theta_max: float, phi: float) -> Optional[float]:
    """The defender's bearing after an arrival at ``theta_a``, or None on a breach.

    ``angle`` is None at the center, from where the defender always wins and
    ends at the arrival bearing.  From the capture circle it wins exactly when
    the bearing gap is within ``theta_max`` (ties included), ending at the
    evasion endpoint, at bearing ``phi`` from the arrival, mirrored to its own
    side.  Callers pass the solution's fields as plain floats, read once.
    """
    if angle is None:
        return wrap_angle(theta_a)
    s = _capture_side(angle, theta_a, theta_max)
    return None if s is None else wrap_angle(theta_a + s * phi)


def _require_finite(angle: Optional[float], theta_a: float) -> None:
    if not (math.isfinite(theta_a) and (angle is None or math.isfinite(angle))):
        raise ValueError("arrival and defender bearings must be finite")


def play_game(angle: Optional[float], theta_a: float, params: GameParams) -> Optional[float]:
    """Resolve one arrival at bearing ``theta_a`` from a defender on the
    capture circle at bearing ``angle``, or at the center when it is None.

    Returns the defender's bearing after a capture, where it stands on the
    capture circle at the capture point, or None after a breach, which sends
    it back to the center.  A bearing of 0.0 is falsy: test ``is None``.
    """
    _require_finite(angle, theta_a)
    sol = capture_circle_solution(params)
    return _next_bearing(angle, theta_a, sol.theta_max, sol.phi)


def run_session(params: GameParams, n: int, seed: int) -> SessionRecord:
    """Play ``n`` sequential games with uniform random arrivals."""
    if n < 1:
        raise ValueError(f"session length must be >= 1, got {n!r}")
    sol = capture_circle_solution(params)
    outcomes = tuple(_session_mask(_uniform_angles(seed, n), sol.theta_max, sol.phi))
    n_capture = outcomes.count(True)
    return SessionRecord(params, seed, outcomes, n_capture, n - n_capture)


def _session_mask(arrivals: Iterable[float], theta_max: float, phi: float) -> Iterator[bool]:
    """Capture flag of each arrival, played in order from the center.

    ``_next_bearing`` chained over ``arrivals``, with its wrap and side test
    written inline: the same IEEE operations in the same order, so every
    bearing and flag is bit-identical (``theta_a - phi`` is exactly
    ``theta_a + (-1.0) * phi``).
    """
    pi, two_pi = math.pi, _TWO_PI
    angle = None
    for theta_a in arrivals:
        if angle is None:
            angle = theta_a % two_pi
        else:
            delta = (angle - theta_a) % two_pi
            if delta > pi:
                delta -= two_pi
            if abs(delta) <= theta_max:
                angle = (theta_a + phi if delta >= 0.0 else theta_a - phi) % two_pi
            else:
                angle = None
                yield False
                continue
        if angle > pi:
            angle -= two_pi
        yield True


class Trajectory(NamedTuple):
    """One replayed game as the exact straight pieces that tile ``[0, t]``.

    Each piece ``(start, end, a, va, d, vd, phase)`` puts the intruder at
    ``a + va * h`` and the defender at ``d + vd * h`` at time ``start + h``,
    for ``start + h`` in ``[start, end]``; ``phase`` is ``"partial"`` before
    detection and ``"full"`` after it.  The game ends at ``t`` with the
    intruder at ``x_a`` and the defender at ``x_d``: in a capture (``captured``
    True, where ``play_game`` returns a bearing) or in a breach.
    """

    pieces: tuple[tuple, ...]
    captured: bool
    t: float
    x_a: complex
    x_d: complex

    @property
    def end(self) -> complex:
        """Where the game ends: midway between the players on a capture, the
        intruder's position on a breach."""
        a, d = self.x_a, self.x_d
        return complex(0.5 * (a.real + d.real), 0.5 * (a.imag + d.imag)) if self.captured else a

    def sample(self, dt: float) -> Iterator[tuple]:
        """Rows ``(t, ax, ay, dx, dy, phase)`` at ``t = k * dt`` for every
        ``k * dt < t`` (and ``k = 0``), then at the end time ``t``.

        These are the rows a trace file holds.  The spacing and the
        ``MAX_TRACE_SAMPLES`` cap are checked here, before any row is made;
        the rows are then yielded one at a time.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if self.t / dt > MAX_TRACE_SAMPLES:
            raise ValueError(f"dt={dt!r} would record more than the limit of {MAX_TRACE_SAMPLES} samples")
        return self._samples(dt)

    def _samples(self, dt: float) -> Iterator[tuple]:
        # Each row at k * dt is read off the first piece ending at or after
        # it; a piece's parts are read once, since each read of a complex's
        # part makes a new float.
        k, t = 0, self.t
        for start, end, a, va, d, vd, ph in self.pieces:
            ax, ay, vax, vay, dx, dy, vdx, vdy = a.real, a.imag, va.real, va.imag, d.real, d.imag, vd.real, vd.imag
            ts = k * dt
            while ts <= end and (k == 0 or ts < t):
                h = ts - start
                yield ts, ax + vax * h, ay + vay * h, dx + vdx * h, dy + vdy * h, ph
                k += 1
                ts = k * dt
        yield t, self.x_a.real, self.x_a.imag, self.x_d.real, self.x_d.imag, self.pieces[-1][6]


def to_world(p: complex, theta_a: float, mirror: float) -> complex:
    """Map a canonical-frame point into the world frame of a game."""
    return complex(p.real, mirror * p.imag) * complex(math.cos(theta_a), math.sin(theta_a))


def _heading(pos: complex, target: complex, speed: float) -> tuple[complex, float]:
    """Velocity toward ``target`` and the time to reach it (inf when already there).

    The parts are scaled one at a time: before Python 3.14 a complex times a
    float is a full complex product, which can flip the sign of a zero part,
    and a trace prints a zero's sign.
    """
    step = target - pos
    dist = math.hypot(step.real, step.imag)
    if dist == 0.0:
        return 0j, math.inf
    k = speed / dist
    return complex(step.real * k, step.imag * k), dist / speed


def simulate_kinematic(angle: Optional[float], theta_a: float, params: GameParams) -> Trajectory:
    """Replay one game on its exact piecewise-linear paths, from a defender on
    the capture circle at bearing ``angle``, or at the center when it is None.

    The intruder runs radially inward until the defender enters its sensing
    radius; then both head straight for the evasion endpoint if the game is
    capture-bound, and otherwise the intruder keeps its radial run to the
    target rim.  The defender walks its event-level route (engagement point,
    hold, pursue; or straight home).
    Each walk is straight at constant speed until it reaches its target and
    then holds, so every event is the first root of ``|p + v s| <= R`` on a
    linear piece: detection at ``rho_a``, breach at ``r_t`` and contact at
    ``CONTACT_SLACK * (1 + r_cc)``.  On ties contact beats breach, and breach
    beats detection.  The walk's pieces come back in a ``Trajectory``, whose
    ``sample(dt)`` yields positions at a fixed spacing.
    """
    _require_finite(angle, theta_a)
    r_cc = capture_circle_radius(params)
    slack = CONTACT_SLACK * (1.0 + r_cc)
    cos_a, sin_a = math.cos(theta_a), math.sin(theta_a)
    origin = 0j
    a = complex(params.tsr_radius * cos_a, params.tsr_radius * sin_a)
    if angle is None:
        capture_bound = True
        d = origin
        w = params.r_t - params.rho_a / (1.0 + params.nu)
        waypoint = complex(w * cos_a, w * sin_a)
        dest = complex(r_cc * cos_a, r_cc * sin_a)
    else:
        sol = capture_circle_solution(params)
        mirror = _capture_side(angle, theta_a, sol.theta_max)
        capture_bound = mirror is not None
        d = complex(r_cc * math.cos(angle), r_cc * math.sin(angle))
        if capture_bound:
            waypoint = to_world(sol.candidate.x_d_eng, theta_a, mirror)
            dest = to_world(sol.x_p, theta_a, mirror)
        else:
            waypoint = origin

    # Walk piece by piece; each piece ends at an arrival or at an event.  The
    # radial run breaches long before it reaches the center.
    a_target, d_target = origin, waypoint
    phase = "partial"
    t = 0.0
    pieces = []  # (start, end, a, va, d, vd, phase)
    kind = None
    while kind not in ("contact", "breach"):
        va, ta = _heading(a, a_target, params.nu)
        vd, td = _heading(d, d_target, 1.0)
        length = min(ta, td)
        rel, vrel = a - d, va - vd
        hits = []  # in tie order
        if phase == "full" and capture_bound:
            hits.append((first_entry(rel, vrel, slack, length), "contact"))
        hits.append((first_entry(a, va, params.r_t, length), "breach"))
        if phase == "partial":
            hits.append((first_entry(rel, vrel, params.rho_a, length), "detect"))
        s, kind = min(((s, k) for s, k in hits if s is not None),
                      key=lambda hit: hit[0], default=(length, None))
        pieces.append((t, t + s, a, va, d, vd, phase))
        t += s
        # Parts scaled one at a time, as in ``_heading``.
        a = a_target if kind is None and ta <= length else complex(a.real + va.real * s, a.imag + va.imag * s)
        d = d_target if kind is None and td <= length else complex(d.real + vd.real * s, d.imag + vd.imag * s)
        if kind == "detect":
            phase = "full"
            if capture_bound:
                a_target = d_target = dest

    return Trajectory(tuple(pieces), kind == "contact", t, a, d)


class AgreementReport(NamedTuple):
    """Comparison of event-level verdicts against kinematic replays.

    Of ``n_games`` arrivals, ``n_boundary_skipped`` have a bearing gap within
    ``BOUNDARY_MARGIN`` of ``theta_max`` and are not replayed; the other
    ``n_compared`` are.  ``n_mismatches`` counts the replays whose verdict,
    capture or breach, differs from the event level's.  Over the captures
    both agree on, ``max_capture_point_error`` is the largest distance from
    the replay's end to the event level's capture point, and
    ``max_circle_distance`` the largest distance from that end to the capture
    circle.  Over the breaches both agree on, ``max_breach_defender_offset``
    is the defender's largest distance from the center when the intruder
    breaches.

    The two capture fields are read at the replay's end, and after detection
    ``simulate_kinematic`` steers both players to the event level's capture
    point.  So a detection made too early, from which the intruder's best
    reply would end off the circle, shows in neither field; the tests'
    ``conftest.capture_off_circle`` measures that reply at detection, in a
    tier-1 property and in the stress tier.
    """

    n_games: int
    n_compared: int
    n_boundary_skipped: int
    n_mismatches: int
    max_capture_point_error: float
    max_circle_distance: float
    max_breach_defender_offset: float

    @property
    def all_agree(self) -> bool:
        return self.n_mismatches == 0 and self.max_capture_point_error <= MAX_DISCREPANCY


def verify_outcome_agreement(params: GameParams, n_games: int, seed: int) -> AgreementReport:
    """Replay a seeded session kinematically and compare verdicts.

    Games whose bearing gap sits within ``BOUNDARY_MARGIN`` of the capture
    threshold are skipped (there the defender reaches its engagement point
    only just in time, so the rounding of ``theta_max`` may decide the
    verdict); everything else must agree.
    """
    if n_games < 1:
        raise ValueError(f"n_games must be >= 1, got {n_games!r}")
    sol = capture_circle_solution(params)
    theta_max, phi = sol.theta_max, sol.phi
    r_cc = capture_circle_radius(params)
    angle: Optional[float] = None
    n_boundary = 0
    n_compared = 0
    n_mismatch = 0
    max_pt_err = 0.0
    max_circ = 0.0
    max_home = 0.0
    for theta_a in _uniform_angles(seed, n_games):
        after = _next_bearing(angle, theta_a, theta_max, phi)
        near_boundary = False
        if angle is not None:
            gap = abs(wrap_angle(angle - theta_a))
            near_boundary = abs(gap - theta_max) < BOUNDARY_MARGIN
        if near_boundary:
            n_boundary += 1
        else:
            traj = simulate_kinematic(angle, theta_a, params)
            n_compared += 1
            if traj.captured != (after is not None):
                n_mismatch += 1
            elif traj.captured:
                end = traj.end
                miss = end - complex(r_cc * math.cos(after), r_cc * math.sin(after))
                max_pt_err = max(max_pt_err, math.hypot(miss.real, miss.imag))
                max_circ = max(max_circ, abs(math.hypot(end.real, end.imag) - r_cc))
            else:
                home = math.hypot(traj.x_d.real, traj.x_d.imag)
                max_home = max(max_home, home)
        angle = after
    return AgreementReport(
        n_games=n_games,
        n_compared=n_compared,
        n_boundary_skipped=n_boundary,
        n_mismatches=n_mismatch,
        max_capture_point_error=max_pt_err,
        max_circle_distance=max_circ,
        max_breach_defender_offset=max_home,
    )
