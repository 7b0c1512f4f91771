"""Planar geometry for the circular-target guarding game.

A circular target of radius ``r_t`` sits at the origin, surrounded by a
sensing annulus of width ``rho_t``.  A single defender (unit speed) guards it
against intruders that move at speed ``nu < 1`` and carry their own sensor of
radius ``rho_a``.  Everything downstream reduces to one construction: the
circle of points whose distances to intruder and defender are in ratio
``nu``.  Its interior is the set the intruder can reach unopposed, so whether
it overlaps the target decides breach versus capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# Slack for arguments of acos/asin/sqrt that are exactly on a boundary in
# real arithmetic.  Larger excursions indicate a logic error, not roundoff,
# and are raised instead of clamped.
CLAMP_TOL = 1e-9
# Target-rim angles scanned by breach_margin_point, and the width to which
# golden-section search refines the best one.
BREACH_SCAN_POINTS = 2048
BREACH_TOL = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class AssumptionViolated(ValueError):
    """Game parameters fall outside the supported regime.

    ``which`` names the failed condition: ``"speed"`` when the intruder is
    not strictly slower than the defender, ``"first"`` or ``"second"`` for
    the two sensing-annulus clauses (the annulus must be wide enough that an
    intruder can neither dodge back out of it nor outrun the defender's
    return to the center).
    """

    def __init__(self, which: str, message: str):
        super().__init__(message)
        self.which = which


class DegenerateCenter(ValueError):
    """A circle centered at the origin has no outward radial direction."""


def clamp_unit(value: float, tol: float = CLAMP_TOL) -> float:
    """Clamp a trig argument to [-1, 1] when it is within ``tol`` of it."""
    if value > 1.0:
        if value > 1.0 + tol:
            raise ValueError(f"trig argument {value!r} exceeds 1 beyond tolerance")
        return 1.0
    if value < -1.0:
        if value < -1.0 - tol:
            raise ValueError(f"trig argument {value!r} is below -1 beyond tolerance")
        return -1.0
    return value


@dataclass(frozen=True)
class Point2:
    """Immutable planar point."""

    x: float
    y: float

    @staticmethod
    def from_polar(r: float, angle: float) -> "Point2":
        return Point2(r * math.cos(angle), r * math.sin(angle))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point2":
        return Point2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float) -> "Point2":
        c, s = math.cos(angle), math.sin(angle)
        return Point2(c * self.x - s * self.y, s * self.x + c * self.y)

    def bearing(self) -> float:
        return math.atan2(self.y, self.x)


@dataclass(frozen=True)
class GameParams:
    """Validated game parameters plus the derived dominance-circle constants.

    ``alpha``, ``beta`` and ``gamma`` are the coefficients of the
    dominance-circle construction for speed ratio ``nu``; they satisfy
    ``alpha - beta == 1`` identically.
    """

    r_t: float
    rho_t: float
    rho_a: float
    nu: float
    alpha: float
    beta: float
    gamma: float

    @property
    def tsr_radius(self) -> float:
        """Outer radius of the target sensing region."""
        return self.r_t + self.rho_t


@dataclass(frozen=True)
class ApolloniusCircle:
    """Boundary of the intruder's dominance region for one agent pair."""

    center: Point2
    radius: float
    nu: float


class CircleClass(Enum):
    """How a dominance circle sits relative to target and sensing annulus."""

    CAPTURE_GUARANTEED = "capture_guaranteed"
    BREACH_POSSIBLE = "breach_possible"
    EXIT_POSSIBLE = "exit_possible"
    BREACH_AND_EXIT = "breach_and_exit"


def assumption_clauses(r_t: float, rho_t: float, rho_a: float, nu: float) -> tuple[float, float]:
    """The two quantities that must not exceed ``rho_t`` for a valid game.

    The first keeps a non-breaching intruder catchable inside the annulus;
    the second gives the defender time to fall back to the center after a
    loss before the next game starts.
    """
    over = 1.0 - nu * nu
    first = (1.0 + 2.0 * nu / over) * rho_a
    second = nu * r_t + 2.0 * rho_a * nu * nu / over
    return first, second


def validate_params(r_t: float, rho_t: float, rho_a: float, nu: float) -> GameParams:
    """Validate raw inputs and derive the dominance-circle constants.

    Raises ``AssumptionViolated`` naming the failed condition, or plain
    ``ValueError`` for non-positive lengths.
    """
    for name, value in (("r_t", r_t), ("rho_t", rho_t), ("rho_a", rho_a)):
        if not (value > 0.0) or not math.isfinite(value):
            raise ValueError(f"{name} must be a positive finite length, got {value!r}")
    if not (0.0 < nu < 1.0):
        raise AssumptionViolated(
            "speed", f"speed ratio nu={nu!r} must lie strictly in (0, 1)"
        )
    first, second = assumption_clauses(r_t, rho_t, rho_a, nu)
    worst = max(first, second)
    if worst > rho_t:
        which = "first" if first >= second else "second"
        raise AssumptionViolated(
            which,
            f"sensing annulus too narrow: {which} clause = {worst:.6g} > rho_t = {rho_t:.6g}",
        )
    alpha = 1.0 / (1.0 - nu * nu)
    gamma = nu * alpha
    beta = nu * gamma
    return GameParams(r_t, rho_t, rho_a, nu, alpha, beta, gamma)


def apollonius(x_a: Point2, x_d: Point2, params: GameParams) -> ApolloniusCircle:
    """Dominance circle of the intruder at ``x_a`` against the defender at ``x_d``."""
    center = params.alpha * x_a - params.beta * x_d
    radius = params.gamma * x_a.distance_to(x_d)
    return ApolloniusCircle(center=center, radius=radius, nu=params.nu)


def classify(circle: ApolloniusCircle, params: GameParams) -> CircleClass:
    """Sign tests deciding breach/exit reachability for a dominance circle.

    Boundary cases are inclusive: a circle tangent to the target (or to the
    outer sensing boundary) still counts as capture-safe.
    """
    d = circle.center.norm()
    breach = d < params.r_t + circle.radius
    exits = d > params.tsr_radius - circle.radius
    if breach and exits:
        return CircleClass.BREACH_AND_EXIT
    if breach:
        return CircleClass.BREACH_POSSIBLE
    if exits:
        return CircleClass.EXIT_POSSIBLE
    return CircleClass.CAPTURE_GUARANTEED


def golden_section_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Maximizer of a unimodal ``f`` on [a, b], by golden-section search.

    Shrinks the bracket until it is no wider than ``tol`` and returns its
    midpoint; ties keep the right-hand part.
    """
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = f(d)
    return 0.5 * (a + b)


def breach_margin_point(x_a: Point2, x_d: Point2, params: GameParams) -> tuple[float, Point2]:
    """Best breaching location for the intruder on the target boundary.

    Maximizes ``nu * |x - x_d| - |x - x_a|`` over the circle ``|x| = r_t``.
    A positive margin means the intruder reaches that boundary point before
    the defender can; the maximizer is its best aim point.  Dense angular
    scan followed by golden-section refinement of the bracketing arc.
    """
    r_t, nu = params.r_t, params.nu

    angles = np.linspace(0.0, 2.0 * math.pi, BREACH_SCAN_POINTS, endpoint=False)
    bx = r_t * np.cos(angles)
    by = r_t * np.sin(angles)
    margins = nu * np.hypot(bx - x_d.x, by - x_d.y) - np.hypot(bx - x_a.x, by - x_a.y)
    i = int(np.argmax(margins))

    def margin(ang: float) -> float:
        x = r_t * math.cos(ang)
        y = r_t * math.sin(ang)
        return nu * math.hypot(x - x_d.x, y - x_d.y) - math.hypot(x - x_a.x, y - x_a.y)

    step = 2.0 * math.pi / BREACH_SCAN_POINTS
    best_ang = golden_section_max(margin, angles[i] - step, angles[i] + step, BREACH_TOL)
    best = margin(best_ang)
    return best, Point2.from_polar(r_t, best_ang)


def farthest_point_from_origin(circle: ApolloniusCircle) -> Point2:
    """Point of the circle with the largest norm, along the radial direction."""
    d = circle.center.norm()
    if d == 0.0:
        raise DegenerateCenter("circle is centered at the origin")
    scale = 1.0 + circle.radius / d
    return Point2(circle.center.x * scale, circle.center.y * scale)
