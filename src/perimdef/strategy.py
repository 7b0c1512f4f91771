"""Equilibrium-strategy mathematics for both game phases.

The defender exploits its one-sided information to meet each intruder on the
engagement surface: the locus of detection configurations whose dominance
circle is tangent to the target.  From there capture is forced, and a doomed
intruder's best reply is to drag the defender to the far rim of its dominance
region, which always lands on one fixed circle (the capture circle).  This
module computes that surface, the largest initial bearing gap the defender
can cover (``theta_max``), and the capture endpoint.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Union

import numpy as np

from .geometry import CLAMP_TOL, GameParams, Point2, clamp_unit, golden_section_max

# Engagement times scanned by optimize_engagement, and the width to which
# golden-section search refines the best grid bracket.
TAU_GRID_POINTS = 1024
TAU_TOL = 1e-9
# Start bearings in [0, pi] from which a plateau candidate is audited.
_AUDIT_BEARINGS = np.linspace(0.0, math.pi, 512)
_AUDIT_COS, _AUDIT_SIN = np.cos(_AUDIT_BEARINGS), np.sin(_AUDIT_BEARINGS)


class OutOfRange(ValueError):
    """Radial position outside the sensing region."""


class InfeasibleTau(ValueError):
    """No tangent detection configuration exists at this engagement time."""


class InvalidCandidate(ValueError):
    """The (time, bearing) pair does not lie on the engagement surface."""


class EmptyDomain(RuntimeError):
    """No feasible engagement time exists; impossible for validated params."""


@dataclass(frozen=True)
class EngagementCandidate:
    """One point of the engagement surface, in the canonical frame.

    The intruder arrives on the sensing boundary at bearing zero and moves
    radially inward; at time ``tau`` the defender sits on the intruder's
    sensing circle at angle ``theta``.
    """

    tau: float
    theta: float
    x_a_eng: Point2
    x_d_eng: Point2


@dataclass(frozen=True)
class EngagementSolution:
    """Optimized engagement bundle for a fixed defender radius."""

    candidate: EngagementCandidate
    theta_max: float
    r_eng: float
    phi_eng: float
    x_p: Point2
    phi: float


@dataclass(frozen=True)
class AtCenter:
    """Defender waiting at the target center."""


@dataclass(frozen=True)
class OnCaptureCircle:
    """Defender parked on the capture circle at the given world bearing."""

    angle: float


DefenderState = Union[AtCenter, OnCaptureCircle]


def capture_circle_radius(params: GameParams) -> float:
    """Radius of the circle on which every equilibrium capture ends."""
    return params.r_t + 2.0 * params.gamma * params.rho_a


def sufficiency_holds(r: float, params: GameParams) -> bool:
    """Whether a defender at radius ``r`` can reach the engagement surface unseen."""
    return r <= params.tsr_radius - params.rho_a


def guarded_arc(r: float, params: GameParams) -> float:
    """Largest arrival-bearing separation a defender at radius ``r`` can guard.

    Close to the center the defender intercepts anything (the arc is pi);
    farther out it shrinks, because a fully informed intruder only needs one
    reachable point of the target rim.
    """
    if r < 0.0 or r > params.tsr_radius:
        raise OutOfRange(f"defender radius {r!r} outside [0, {params.tsr_radius!r}]")
    nu, r_t = params.nu, params.r_t
    rtil = params.tsr_radius
    if r <= params.rho_t / nu - r_t:
        return math.pi
    f1 = (r_t + nu * r) ** 2 - (rtil - nu * r_t) ** 2
    f2 = (rtil + nu * r_t) ** 2 - (nu * r - r_t) ** 2
    arg = f1 * f2 / (16.0 * nu * nu * r_t * r_t * r * rtil)
    return 2.0 * math.acos(math.sqrt(clamp_unit(arg)))


def engagement_domain(params: GameParams) -> tuple[float, float]:
    """Feasible engagement-time interval, in closed form.

    The lower end is the earliest time a tangent configuration exists (the
    defender dead ahead); the upper end has the defender directly between
    intruder and target.  Sign checks at the endpoints guard the algebra.
    """
    nu, rho_a = params.nu, params.rho_a
    beta, gamma = params.beta, params.gamma
    tau_min = (params.rho_t - (beta + gamma) * rho_a) / nu
    tau_max = (params.rho_t - (gamma - beta) * rho_a) / nu
    if not (0.0 < tau_min < tau_max):
        raise EmptyDomain(
            f"no feasible engagement window for {params!r}: [{tau_min}, {tau_max}]"
        )
    lo = _tangency_rhs(tau_min, params)
    hi = _tangency_rhs(tau_max, params)
    if abs(lo) > CLAMP_TOL or abs(hi - 1.0) > CLAMP_TOL:
        raise EmptyDomain(f"engagement window endpoints inconsistent: {lo}, {hi}")
    return tau_min, tau_max


def _intruder_range(tau: float, params: GameParams) -> float:
    """Distance of the inbound intruder from the center at time ``tau``."""
    return params.tsr_radius - tau * params.nu


def _tangency_rhs(tau: float, params: GameParams) -> float:
    """Value of sin^2(theta/2) that makes the dominance circle tangent."""
    a = _intruder_range(tau, params)
    inner = params.r_t + params.gamma * params.rho_a
    return (inner * inner - (a - params.beta * params.rho_a) ** 2) / (
        4.0 * params.beta * params.rho_a * a
    )


def engagement_theta(tau: float, params: GameParams) -> float:
    """Defender bearing on the intruder's sensing circle at engagement time ``tau``.

    Returns the canonical branch in [0, pi]; callers mirror it as needed.
    """
    rhs = _tangency_rhs(tau, params)
    if rhs < -CLAMP_TOL or rhs > 1.0 + CLAMP_TOL:
        raise InfeasibleTau(f"tau={tau!r} outside the engagement window (rhs={rhs!r})")
    rhs = min(1.0, max(0.0, rhs))
    return 2.0 * math.asin(math.sqrt(rhs))


def engagement_candidate(tau: float, params: GameParams) -> EngagementCandidate:
    """Build the canonical engagement-surface point at time ``tau``."""
    theta = engagement_theta(tau, params)
    a = _intruder_range(tau, params)
    x_a = Point2(a, 0.0)
    x_d = Point2(a + params.rho_a * math.cos(theta), params.rho_a * math.sin(theta))
    return EngagementCandidate(tau=tau, theta=theta, x_a_eng=x_a, x_d_eng=x_d)


def _check_candidate(tau: float, theta: float, params: GameParams) -> None:
    a = _intruder_range(tau, params)
    cx = a - params.beta * params.rho_a * math.cos(theta)
    cy = -params.beta * params.rho_a * math.sin(theta)
    want = params.r_t + params.gamma * params.rho_a
    scale = 1.0 + want
    if abs(math.hypot(cx, cy) - want) > 1e-9 * scale:
        raise InvalidCandidate(
            f"(tau={tau!r}, theta={theta!r}) is not a tangent configuration"
        )


def _check_radius(r: float) -> None:
    if not r > 0.0:
        raise OutOfRange(f"defender radius must be positive, got {r!r}")


def theta_max_at(tau: float, theta: float, r: float, params: GameParams) -> float:
    """Largest initial bearing gap from which a defender at radius ``r`` makes
    the engagement point (tau, theta) in time.

    Law of cosines on the triangle (defender start, center, engagement
    point): when even the best-aligned start cannot make it, the answer is
    zero; when every bearing works, it saturates at pi.
    """
    _check_radius(r)
    _check_candidate(tau, theta, params)
    a = _intruder_range(tau, params)
    ex = a + params.rho_a * math.cos(theta)
    ey = params.rho_a * math.sin(theta)
    r_eng = math.hypot(ex, ey)
    phi_eng = math.atan2(ey, ex)
    arg = (r_eng * r_eng + r * r - tau * tau) / (2.0 * r_eng * r)
    if arg > 1.0 + CLAMP_TOL:
        return 0.0
    if arg < -1.0 - CLAMP_TOL:
        return math.pi
    reach = math.acos(clamp_unit(arg))
    return min(math.pi, reach + phi_eng)


def engagement_radius(tau: float, theta: float, params: GameParams) -> float:
    """Closed-form norm of the engagement point (defender position at contact)."""
    a = _intruder_range(tau, params)
    return math.sqrt(
        (a - params.rho_a) ** 2
        + 4.0 * a * params.rho_a * math.cos(theta / 2.0) ** 2
    )


def evasion_point(candidate: EngagementCandidate, params: GameParams) -> tuple[Point2, float]:
    """Where a doomed intruder drags the capture, and the bearing of that point.

    The intruder runs straight to the far rim of its dominance circle; the
    two-argument arctangent fixes the branch so the circle center is exactly
    ``(r_t + gamma*rho_a) * u(phi)``.
    """
    b = params.beta * params.rho_a
    cx = candidate.x_a_eng.x - b * math.cos(candidate.theta)
    cy = candidate.x_a_eng.y - b * math.sin(candidate.theta)
    phi = math.atan2(cy, cx)
    g = params.gamma * params.rho_a
    x_p = Point2(cx + g * math.cos(phi), cy + g * math.sin(phi))
    return x_p, phi


def _plateau_is_stealthy(tau: float, params: GameParams, r: float) -> bool:
    """Whether a saturated candidate is reachable unseen from every bearing.

    From each start ``r * u(bearing)``, bearings in [0, pi], the defender
    walks straight to the engagement point and holds there while the
    intruder runs radially inward.  Both paths are piecewise linear in time,
    so the closest approach is exact; any late arrival or any approach
    inside the intruder's sensing radius fails the candidate.
    """
    eng = engagement_candidate(tau, params).x_d_eng
    rtil = params.tsr_radius
    nu = params.nu
    sx, sy = r * _AUDIT_COS, r * _AUDIT_SIN
    path = np.hypot(eng.x - sx, eng.y - sy)
    if np.any(path > tau * (1.0 + 1e-12) + 1e-12):
        return False

    safe_path = np.where(path > 0.0, path, 1.0)
    wx = (eng.x - sx) / safe_path + nu
    wy = (eng.y - sy) / safe_path
    ww = wx * wx + wy * wy
    r0x = sx - rtil
    t_star = np.clip(
        np.where(ww > 0.0, -(r0x * wx + sy * wy) / np.where(ww > 0.0, ww, 1.0), 0.0),
        0.0,
        np.minimum(path, tau),
    )
    d_travel = np.hypot(r0x + t_star * wx, sy + t_star * wy)

    hx = eng.x - (rtil - nu * path)
    t_hold = np.clip(-hx / nu, 0.0, np.maximum(tau - path, 0.0))
    d_hold = np.where(path < tau, np.hypot(hx + nu * t_hold, eng.y), np.inf)

    clearance = np.minimum(d_travel, d_hold) - params.rho_a
    return bool(np.all(clearance >= -1e-9))


def _objective_grid(taus: np.ndarray, r: float, params: GameParams) -> np.ndarray:
    """``theta_max_at(tau, engagement_theta(tau), r)`` over an array of times.

    Applies every check and branch of the scalar chain to the whole array.
    numpy's squaring and trigonometry may differ from ``math`` in the last
    bits, so callers should act only on decisions taken over the grid
    (which index is largest, which saturate at pi) and recompute values
    with the scalar functions.
    """
    a = params.tsr_radius - taus * params.nu
    inner = params.r_t + params.gamma * params.rho_a
    b = params.beta * params.rho_a
    rhs = (inner * inner - (a - b) ** 2) / (4.0 * b * a)
    outside = (rhs < -CLAMP_TOL) | (rhs > 1.0 + CLAMP_TOL)
    if outside.any():
        i = int(np.argmax(outside))
        raise InfeasibleTau(
            f"tau={float(taus[i])!r} outside the engagement window (rhs={float(rhs[i])!r})"
        )
    theta = 2.0 * np.arcsin(np.sqrt(np.clip(rhs, 0.0, 1.0)))
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    off_surface = np.abs(np.hypot(a - b * cos_t, -b * sin_t) - inner) > 1e-9 * (1.0 + inner)
    if off_surface.any():
        i = int(np.argmax(off_surface))
        raise InvalidCandidate(
            f"(tau={float(taus[i])!r}, theta={float(theta[i])!r}) is not a tangent configuration"
        )

    ex = a + params.rho_a * cos_t
    ey = params.rho_a * sin_t
    r_eng = np.hypot(ex, ey)
    arg = (r_eng * r_eng + r * r - taus * taus) / (2.0 * r_eng * r)
    reach = np.arccos(np.clip(arg, -1.0, 1.0))
    values = np.minimum(math.pi, reach + np.arctan2(ey, ex))
    values[arg > 1.0 + CLAMP_TOL] = 0.0
    values[arg < -1.0 - CLAMP_TOL] = math.pi
    return values


def optimize_engagement(r: float, params: GameParams) -> EngagementSolution:
    """Pick the engagement point maximizing the guarded bearing gap.

    One-dimensional search over the engagement time (the bearing is pinned
    by tangency).  A coarse grid is scanned in one numpy pass, which only
    decides where to look: the first grid maximum and the saturated grid
    points.  Everything after that runs on the scalar functions:
    golden-section refinement of the best bracket, with ties broken toward
    the smaller time.  When the objective saturates at pi the maximizer is a
    whole plateau, and the tie goes to the smallest saturated time whose
    approach is provably never sensed early from any start bearing (audited
    in closed form); candidates that would be spotted en route cannot
    deliver the tangent engagement they promise.  The result is
    deterministic.
    """
    _check_radius(r)
    tau_min, tau_max = engagement_domain(params)

    def objective(tau: float) -> float:
        return theta_max_at(tau, engagement_theta(tau, params), r, params)

    span = tau_max - tau_min
    grid = tau_min + span * np.arange(TAU_GRID_POINTS) / (TAU_GRID_POINTS - 1)
    values = _objective_grid(grid, r, params)
    taus = grid.tolist()
    best_i = int(np.argmax(values))

    if values[best_i] == math.pi:
        # The maximizer is a whole plateau: take its earliest time whose
        # approach is audited stealthy (the audit flips from failing to passing
        # as the engagement tucks behind the intruder), else its first time.
        sat = grid[values == math.pi].tolist()
        stealthy = partial(_plateau_is_stealthy, params=params, r=r)
        k = 0 if stealthy(sat[0]) else bisect.bisect_left(sat, True, 1, key=stealthy)
        tau_star = sat[k if k < len(sat) else 0]
    else:
        lo, hi = taus[max(0, best_i - 1)], taus[min(TAU_GRID_POINTS - 1, best_i + 1)]
        tau_star = golden_section_max(objective, lo, hi, TAU_TOL)
        # Compared on the scalar objective, whose bits the grid's need not match.
        if objective(tau_star) < objective(taus[best_i]):
            tau_star = taus[best_i]

    candidate = engagement_candidate(tau_star, params)
    theta_max = theta_max_at(tau_star, candidate.theta, r, params)
    r_eng = candidate.x_d_eng.norm()
    phi_eng = candidate.x_d_eng.bearing()
    x_p, phi = evasion_point(candidate, params)
    return EngagementSolution(
        candidate=candidate,
        theta_max=theta_max,
        r_eng=r_eng,
        phi_eng=phi_eng,
        x_p=x_p,
        phi=phi,
    )


@lru_cache(maxsize=None)
def capture_circle_solution(params: GameParams) -> EngagementSolution:
    """Cached engagement solution for a defender on the capture circle.

    Every on-circle game reuses the same bundle because the defender radius
    is the same at the start of each of them.
    """
    return optimize_engagement(capture_circle_radius(params), params)
