"""Planar geometry for the circular-target guarding game.

A circular target of radius ``r_t`` sits at the origin, surrounded by a
sensing annulus of width ``rho_t``.  A single defender (unit speed) guards it
against intruders that move at speed ``nu < 1`` and carry their own sensor of
radius ``rho_a``.  Everything downstream reduces to one construction: the
circle of points whose distances to intruder and defender are in ratio
``nu``.  Its interior is the set the intruder can reach unopposed, so whether
it overlaps the target decides breach versus capture.

A point is a ``complex``, ``x + iy``.  A distance is ``math.hypot`` of a
difference's parts, not ``abs()``: a complex's ``abs`` calls the C library's
``hypot``, which glibc 2.36 rounds differently from the correctly rounded
``math.hypot`` on about 0.3% of inputs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional

# Slack for arguments of acos/asin/sqrt that are exactly on a boundary in
# real arithmetic.  Larger excursions indicate a logic error, not roundoff,
# and are raised instead of clamped.
CLAMP_TOL = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The lengths (r_t, rho_t, rho_a) a game may have: their squares lie about
# eight decades inside the normal floats, so the squares, sums of squares and
# products of two lengths that the solver and the replay form stay finite
# and normal.  Beyond it a solve overflows or divides by an underflowed zero.
LENGTH_RANGE = (1e-150, 1e150)


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


def clamp_unit(value: float) -> float:
    """Clamp a trig argument to [-1, 1] when it is within ``CLAMP_TOL`` of it."""
    if value > 1.0:
        if value > 1.0 + CLAMP_TOL:
            raise ValueError(f"trig argument {value!r} exceeds 1 beyond tolerance")
        return 1.0
    if value < -1.0:
        if value < -1.0 - CLAMP_TOL:
            raise ValueError(f"trig argument {value!r} is below -1 beyond tolerance")
        return -1.0
    return value


class GameParams(NamedTuple):
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


class ApolloniusCircle(NamedTuple):
    """Boundary of the intruder's dominance region for one agent pair."""

    center: complex
    radius: float


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


def _check_length(name: str, value: float) -> None:
    lo, hi = LENGTH_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value!r} is outside the supported length range [{lo:g}, {hi:g}]")


def _check_speed(nu: float) -> None:
    if not (0.0 < nu < 1.0):
        raise AssumptionViolated("speed", f"speed ratio nu={nu!r} must lie strictly in (0, 1)")


def validate_params(r_t: float, rho_t: float, rho_a: float, nu: float) -> GameParams:
    """Validate raw inputs and derive the dominance-circle constants.

    Raises ``AssumptionViolated`` naming the failed condition, or plain
    ``ValueError`` naming a length outside ``LENGTH_RANGE``.
    """
    for name, value in (("r_t", r_t), ("rho_t", rho_t), ("rho_a", rho_a)):
        _check_length(name, value)
    _check_speed(nu)
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


def apollonius(x_a: complex, x_d: complex, params: GameParams) -> ApolloniusCircle:
    """Dominance circle of the intruder at ``x_a`` against the defender at ``x_d``.

    Before Python 3.14 a float times a complex is a full complex product,
    which can flip the sign of a zero part of the center; no output prints it.
    """
    center = params.alpha * x_a - params.beta * x_d
    gap = x_a - x_d
    return ApolloniusCircle(center=center, radius=params.gamma * math.hypot(gap.real, gap.imag))


def classify(circle: ApolloniusCircle, params: GameParams) -> CircleClass:
    """Sign tests deciding breach/exit reachability for a dominance circle.

    Boundary cases are inclusive: a circle tangent to the target (or to the
    outer sensing boundary) still counts as capture-safe.
    """
    d = math.hypot(circle.center.real, circle.center.imag)
    breach = d < params.r_t + circle.radius
    exits = d > params.tsr_radius - circle.radius
    if breach and exits:
        return CircleClass.BREACH_AND_EXIT
    if breach:
        return CircleClass.BREACH_POSSIBLE
    if exits:
        return CircleClass.EXIT_POSSIBLE
    return CircleClass.CAPTURE_GUARANTEED


def first_entry(p: complex, v: complex, radius: float, length: float) -> Optional[float]:
    """Earliest ``s`` in ``[0, length]`` with ``|p + s v| <= radius``, or None.

    The closest approach on the piece decides whether the disk is entered, so
    rounding in the discriminant cannot hide a graze.  The sign of a zero
    part of ``p`` or ``v`` changes no result.
    """
    px, py, vx, vy = p.real, p.imag, v.real, v.imag
    c = px * px + py * py - radius * radius
    if c <= 0.0:
        return 0.0
    b = px * vx + py * vy
    if b >= 0.0:
        return None  # not closing in, or standing still
    vv = vx * vx + vy * vy
    s_near = min(-b / vv, length)
    qx, qy = px + vx * s_near, py + vy * s_near
    if qx * qx + qy * qy > radius * radius:
        return None
    return min(c / (math.sqrt(max(b * b - vv * c, 0.0)) - b), s_near)


def golden_section_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Maximizer of a unimodal ``f`` on [a, b], by golden-section search.

    Shrinks the bracket until it is no wider than ``tol``, or until rounding
    leaves no float strictly between its ends and the two probes (an absolute
    ``tol`` below the ulp of large ends), and returns its midpoint; ties keep
    the right-hand part.
    """
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = f(d)
    return 0.5 * (a + b)

