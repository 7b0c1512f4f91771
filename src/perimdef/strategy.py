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
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

from .geometry import CLAMP_TOL, GameParams, clamp_unit, first_entry, golden_section_max

# Engagement times searched by optimize_engagement, and the width to which
# golden-section search refines the best grid bracket.
TAU_GRID_POINTS = 1024
TAU_TOL = 1e-9
# Least lead of the engagement bearing past pi/2 that a plateau hold needs.  A
# hold at theta stays unseen before tau exactly when theta >= pi/2, and at
# pi/2 the intruder's sensing circle only grazes the hold point at tau, so
# whether the replay detects it is decided by rounding; the margin makes the
# detection at tau cross the sensing circle.
HOLD_MARGIN = 1e-6


class OutOfRange(ValueError):
    """Radial position outside the sensing region."""


class InfeasibleTau(ValueError):
    """No tangent detection configuration exists at this engagement time."""


class InvalidCandidate(ValueError):
    """The (time, bearing) pair does not lie on the engagement surface."""


class EmptyDomain(ValueError):
    """No consistent engagement window: for valid params, rounding puts the
    tangency value at an end of the window off 0 or 1 by more than
    ``CLAMP_TOL`` once rho_t / rho_a is about 1e7 at nu = 0.5 (3e5 at 0.05)."""


class EngagementCandidate(NamedTuple):
    """One point of the engagement surface, in the canonical frame.

    The intruder arrives on the sensing boundary at bearing zero and moves
    radially inward; at time ``tau`` the defender sits on the intruder's
    sensing circle at angle ``theta``.
    """

    tau: float
    theta: float
    x_a_eng: complex
    x_d_eng: complex


class _SolutionFields(NamedTuple):
    theta_max: float
    params: GameParams
    refined_tau: Optional[float]


class EngagementSolution(_SolutionFields):
    """Optimized engagement bundle for a defender on the capture circle.

    ``theta_max`` is computed when the solution is made.  The rest of the
    bundle (``candidate``, ``x_p``, ``phi``) is derived on first use and
    cached in the ``__dict__`` this subclass of the fields' tuple has.
    ``refined_tau`` is the engagement time found by golden-section
    refinement, or None when the objective saturates at pi; the plateau time
    is then chosen by the stealth audit on the first use of any of them.
    """

    @cached_property
    def candidate(self) -> EngagementCandidate:
        tau = self.refined_tau
        if tau is None:
            tau = _plateau_time(self.params)
        return engagement_candidate(tau, self.params)

    @cached_property
    def x_p(self) -> complex:
        return evasion_point(self.candidate, self.params)[0]

    @cached_property
    def phi(self) -> float:
        return evasion_point(self.candidate, self.params)[1]


def capture_circle_radius(params: GameParams) -> float:
    """Radius of the circle on which every equilibrium capture ends."""
    return params.r_t + 2.0 * params.gamma * params.rho_a


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
    # A few ulps above the threshold f1 can round below zero; the arc there is pi.
    if arg < -CLAMP_TOL:
        raise ValueError(f"guarded-arc argument {arg!r} is below 0 beyond tolerance")
    return 2.0 * math.acos(math.sqrt(max(0.0, clamp_unit(arg))))


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
    rhs = _surface(params)[0]
    lo, hi = rhs(tau_min), rhs(tau_max)
    if abs(lo) > CLAMP_TOL or abs(hi - 1.0) > CLAMP_TOL:
        raise EmptyDomain(f"engagement window endpoints inconsistent for {params!r}: {lo}, {hi}")
    return tau_min, tau_max


def _surface(params: GameParams) -> tuple[Callable, ...]:
    """The engagement surface of ``params`` as closures over its params-only
    products, which are formed once per call:

    - ``rhs(tau)``, the value of sin^2(theta/2) that makes the dominance
      circle tangent;
    - ``theta(tau)``, the defender's canonical bearing in [0, pi];
    - ``point(tau, theta)``, the intruder's range from the center and the
      engagement point;
    - ``objective(tau)``, ``theta_max_at`` from the capture circle (``r_cc``),
      which ``optimize_engagement`` maximizes.
    """
    tsr, nu, rho_a = params.tsr_radius, params.nu, params.rho_a
    r_cc = capture_circle_radius(params)
    b = params.beta * rho_a
    inner = params.r_t + params.gamma * rho_a
    inner2, den4 = inner * inner, 4.0 * params.beta * rho_a
    off_tol = 1e-9 * (1.0 + inner)

    def rhs(tau: float) -> float:
        a = tsr - tau * nu
        return (inner2 - (a - b) ** 2) / (den4 * a)

    def theta(tau: float) -> float:
        value = rhs(tau)
        if value < -CLAMP_TOL or value > 1.0 + CLAMP_TOL:
            raise InfeasibleTau(f"tau={tau!r} outside the engagement window (rhs={value!r})")
        return 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, value))))

    def point(tau: float, theta: float) -> tuple[float, float, float]:
        a = tsr - tau * nu
        return a, a + rho_a * math.cos(theta), rho_a * math.sin(theta)

    def objective(tau: float) -> float:
        th = theta(tau)
        a, ex, ey = point(tau, th)
        # Rounding alone can fail this: theta(tau) is tangent by construction.
        if abs(math.hypot(a - b * math.cos(th), -b * math.sin(th)) - inner) > off_tol:
            raise InvalidCandidate(f"(tau={tau!r}, theta={th!r}) is not a tangent configuration")
        r_eng = math.hypot(ex, ey)
        # Never 0 / 0: ex >= a >= r_t + nu/(1 + nu)*rho_a for theta <= pi/2, else ey >=
        # rho_a*sin(math.pi), so the divisor is >= 2*min(r_t, 1.2e-16*rho_a)*r_cc, ~2.4e-316
        # over LENGTH_RANGE.  arg < 1 (see _grid_peak); clamp_unit raises beyond CLAMP_TOL.
        arg = (r_eng * r_eng + r_cc * r_cc - tau * tau) / (2.0 * r_eng * r_cc)
        if arg < -1.0 - CLAMP_TOL:
            return math.pi
        return min(math.pi, math.acos(clamp_unit(arg)) + math.atan2(ey, ex))

    return rhs, theta, point, objective


def engagement_candidate(tau: float, params: GameParams) -> EngagementCandidate:
    """Build the canonical engagement-surface point at time ``tau``, its bearing in [0, pi]."""
    _, theta_at, point, _ = _surface(params)
    theta = theta_at(tau)
    a, ex, ey = point(tau, theta)
    return EngagementCandidate(tau=tau, theta=theta, x_a_eng=complex(a, 0.0), x_d_eng=complex(ex, ey))


def theta_max_at(tau: float, params: GameParams) -> float:
    """Largest initial bearing gap from which a defender on the capture circle
    makes the engagement point at time ``tau`` in time.

    Law of cosines on the triangle (defender start, center, engagement
    point); when every bearing works, it saturates at pi.  It is positive
    over the whole engagement window (see ``_grid_peak``).
    """
    return _surface(params)[3](tau)


def evasion_point(candidate: EngagementCandidate, params: GameParams) -> tuple[complex, float]:
    """Where a doomed intruder drags the capture, and the bearing of that point.

    The intruder runs straight to the far rim of its dominance circle; the
    two-argument arctangent fixes the branch so the circle center is exactly
    ``(r_t + gamma*rho_a) * u(phi)``.
    """
    b = params.beta * params.rho_a
    cx = candidate.x_a_eng.real - b * math.cos(candidate.theta)
    cy = candidate.x_a_eng.imag - b * math.sin(candidate.theta)
    phi = math.atan2(cy, cx)
    g = params.gamma * params.rho_a
    x_p = complex(cx + g * math.cos(phi), cy + g * math.sin(phi))
    return x_p, phi


def _plateau_is_stealthy(tau: float, params: GameParams) -> bool:
    """Whether a saturated candidate is reachable unseen from every bearing.

    From a start on the capture circle the defender walks straight to the
    engagement point and holds there while the intruder runs radially
    inward.  The walk is replayed from bearing pi, which arrives in time on
    a plateau (see ``_grid_peak``), with the replay's event finder: any
    entry into the intruder's sensing radius on the walk fails the
    candidate; the tests and the stress tier check its verdict against a fan
    of starts over [0, pi].  A hold passes in closed form, when its bearing
    leads pi/2 by ``HOLD_MARGIN``.
    """
    cand = engagement_candidate(tau, params)
    eng = cand.x_d_eng
    a0, va = complex(params.tsr_radius, 0.0), complex(-params.nu, 0.0)
    start = complex(-capture_circle_radius(params), 0.0)
    walk = eng - start
    path = math.hypot(walk.real, walk.imag)
    vd = walk * (1.0 / (path or 1.0))
    if first_entry(a0 - start, va - vd, params.rho_a, min(path, tau)) is not None:
        return False
    return not (path < tau and cand.theta - 0.5 * math.pi < HOLD_MARGIN)


def _grid(objective: Callable[[float], float], params: GameParams) -> tuple[Callable[[int], float], ...]:
    """The ``TAU_GRID_POINTS`` engagement times searched by ``optimize_engagement``,
    and ``objective`` at each (by index, evaluated once).

    Time ``k`` is ``tau_min + span * k / (TAU_GRID_POINTS - 1)``.
    """
    tau_min, tau_max = engagement_domain(params)
    span = tau_max - tau_min

    def time(k: int) -> float:
        return tau_min + span * k / (TAU_GRID_POINTS - 1)

    @lru_cache(maxsize=None)
    def value(k: int) -> float:
        return objective(time(k))

    return time, value


def _grid_peak(value: Callable[[int], float]) -> int:
    """The first maximum of the objective over the grid, from its ``value`` by index.

    Over the grid the objective rises strictly to its first maximum and
    never rises after it.  So the first maximum is the first ``k`` with
    ``value(k) >= value(k + 1)`` (the last index if there is none), and
    bisection finds it from about 18 of the grid's values.

    The first annulus clause alone makes the objective positive over the
    whole window.  It is zero only if ``|r_eng - r| >= tau``, ``r_eng`` the
    engagement point's radius and ``r`` the capture circle's.  That point is on
    the intruder's sensing circle around ``(a, 0)``: ``|r_eng - a| <= rho_a``.
    With ``beta + gamma = nu/(1 - nu)``, ``alpha - beta = 1`` and
    ``tau >= tau_min``, ``r_eng - r < tau`` if ``rho_t*(1 - nu^2) > 2*nu*rho_a``
    and ``r - r_eng < tau`` if ``rho_t > 2*(nu + beta)*rho_a``.  The clause,
    ``rho_t*(1 - nu^2) >= (1 - nu^2 + 2*nu)*rho_a``, exceeds the former by
    ``(1 - nu^2)*rho_a`` and, times ``1 - nu^2``, the latter by
    ``(1 - nu)^2*(1 + 2*nu)*rho_a``.

    A maximum of pi is a plateau that runs to ``tau_max``: saturation at
    ``tau`` (the start at bearing pi on the capture circle arrives in time)
    is ``D <= 0`` for ``D = |E + (r, 0)|^2 - tau^2``, ``E`` the engagement
    point, and ``D`` falls strictly in ``tau``.  With
    ``a = tsr_radius - nu*tau > 0``, the tangency ``cos(theta) = 1 - 2*rhs(tau)``
    gives ``D = f(a) - tau^2``, ``f(a) = (a + r)^2 + rho_a^2 + (a + r)(a^2 - K)/(beta*a)``, where
    ``K = (r_t + gamma*rho_a)^2 - (beta*rho_a)^2 > 0`` as ``beta = nu*gamma``;
    ``f'(a) = 2(a + r) + (2a^3 + r*a^2 + r*K)/(beta*a^2) > 0`` and ``a`` falls.
    So the grid saturates exactly when its last value is pi, which
    ``optimize_engagement`` reads before it looks for this maximum.
    """
    return bisect.bisect_left(range(TAU_GRID_POINTS - 1), True, key=lambda k: value(k) >= value(k + 1))


def _plateau_time(params: GameParams) -> float:
    """The engagement time chosen when the objective saturates at pi.

    The maximizer is then a whole plateau, from the first grid maximum to
    ``tau_max`` (see ``_grid_peak``): take its earliest grid time whose
    approach is audited stealthy (the audit flips from failing to passing as
    the engagement tucks behind the intruder), else its first time.
    """
    time, value = _grid(_surface(params)[3], params)
    first = _grid_peak(value)

    def stealthy(k: int) -> bool:
        return _plateau_is_stealthy(time(k), params)

    k = first if stealthy(first) else bisect.bisect_left(range(TAU_GRID_POINTS), True, first + 1, key=stealthy)
    return time(k if k < TAU_GRID_POINTS else first)


def optimize_engagement(params: GameParams) -> EngagementSolution:
    """Pick the engagement point maximizing the guarded bearing gap of a
    defender on the capture circle, where each capture leaves it.

    One-dimensional search over the engagement time (the bearing is pinned
    by tangency), on one closure of the objective per solve.  The objective
    is read first at the last time of a coarse grid: the grid saturates at
    pi somewhere exactly when it does there (see ``_grid_peak``), so a
    saturated ``theta_max`` costs one evaluation.  Otherwise bisection over
    the grid finds its first maximum, evaluating the objective only where it
    looks, and golden-section search refines the best bracket, with ties
    broken toward the smaller time.

    A saturated maximizer is a whole plateau, from the first grid maximum to
    ``tau_max``.  The tie then goes to the smallest saturated grid time whose
    approach, replayed with the kinematic replay's event finder from the far
    end of the start arc (bearing pi), is never sensed early;
    candidates that would be spotted en route cannot deliver the tangent
    engagement they promise.  That time, and the first maximum it starts
    from, are found on the first use of the solution's ``candidate``, ``x_p``
    or ``phi``, since ``theta_max`` does not depend on them.  The result is
    deterministic.
    """
    objective = _surface(params)[3]
    time, value = _grid(objective, params)
    if value(TAU_GRID_POINTS - 1) == math.pi:
        return EngagementSolution(theta_max=math.pi, params=params, refined_tau=None)

    best_i = _grid_peak(value)
    lo, hi = time(max(0, best_i - 1)), time(min(TAU_GRID_POINTS - 1, best_i + 1))
    tau_star = golden_section_max(objective, lo, hi, TAU_TOL)
    theta_max = objective(tau_star)
    if theta_max < value(best_i):
        tau_star, theta_max = time(best_i), value(best_i)
    return EngagementSolution(theta_max=theta_max, params=params, refined_tau=tau_star)


@lru_cache(maxsize=1)
def capture_circle_solution(params: GameParams) -> EngagementSolution:
    """``optimize_engagement(params)``, solved once per params.

    Every on-circle game reuses the same bundle because the defender radius
    is the same at the start of each of them.  Callers ask for one params at
    a time, so only the latest params' solution is kept.
    """
    return optimize_engagement(params)
