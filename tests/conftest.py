from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import perimdef
from perimdef import GameParams, validate_params
from perimdef.engine import simulate_kinematic
from perimdef.geometry import apollonius, assumption_clauses
from perimdef.strategy import (
    TAU_GRID_POINTS, _grid_peak, _surface, capture_circle_radius, capture_circle_solution,
    engagement_candidate, engagement_domain, guarded_arc, theta_max_at,
)

# float.hex of (tau, phi) of two saturated optima: at (5, 10, 0.5, 0.5) the
# first saturated time fails its audit, at (5, 12, 1, 0.75) it passes.
PLATEAU_HEX = {
    (5.0, 10.0, 0.5, 0.5): ("0x1.356c05ac15b02p+4", "-0x1.000aa3a89065ep-5"),
    (5.0, 12.0, 1.0, 0.75): ("0x1.cc25527930955p+3", "-0x1.7830f92cf76a4p-3"),
}


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports the perimdef under test."""
    src = str(Path(perimdef.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(script: str, cwd, *args: str) -> str:
    """Run ``script`` with ``args`` in a fresh interpreter in ``cwd`` and return what it prints."""
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=fresh_env(), capture_output=True,
                          text=True, timeout=60, check=True).stdout


@pytest.fixture(scope="session")
def params():
    """Baseline experiment parameters (r_t=5, rho_t=10, rho_a=1, nu=0.8)."""
    return validate_params(5.0, 10.0, 1.0, 0.8)


def make_valid_params(rng: random.Random):
    """Draw a random parameter set satisfying the game assumptions.

    The annulus width is sampled above the binding clause, so validation
    succeeds by construction.
    """
    while True:
        nu = rng.uniform(0.25, 0.92)
        rho_a = rng.uniform(0.05, 2.5)
        r_t = rng.uniform(0.5, 12.0)
        first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
        rho_t = max(first, second) * rng.uniform(1.01, 2.8)
        try:
            return validate_params(r_t, rho_t, rho_a, nu)
        except ValueError:
            continue


@pytest.fixture
def random_valid_params():
    return make_valid_params


# The ranges ``valid_params`` draws from, out to the edge regimes: nu near 1,
# small rho_a, and an annulus whose binding clause only just holds (factor 1).
# ``stress/agreement.py`` draws from the same ranges.
EDGE_RANGES = {"nu": (0.05, 0.99), "rho_a": (0.005, 5.0), "r_t": (0.1, 30.0), "annulus": (1.0, 4.0)}
# Largest distance of a replay's capture from the capture circle, and largest
# depth of a detection's dominance circle inside the target, in units of 1 + r_cc.
CIRCLE_TOL = 1e-8


def edge_params(rng: random.Random, i: int):
    """Draw ``i`` over ``EDGE_RANGES`` with ``rng``: the annulus clause holds at
    factor 1 on even draws and at a uniform factor in the ``annulus`` range
    on odd ones."""
    nu = rng.uniform(*EDGE_RANGES["nu"])
    rho_a = rng.uniform(*EDGE_RANGES["rho_a"])
    r_t = rng.uniform(*EDGE_RANGES["r_t"])
    factor = 1.0 if i % 2 == 0 else rng.uniform(*EDGE_RANGES["annulus"])
    return validate_params(r_t, max(assumption_clauses(r_t, 1.0, rho_a, nu)) * factor, rho_a, nu)


@st.composite
def valid_params(draw):
    """Valid params over ``EDGE_RANGES``; the annulus width is the binding
    clause times a factor in the ``annulus`` range."""
    nu = draw(st.floats(*EDGE_RANGES["nu"]))
    rho_a = draw(st.floats(*EDGE_RANGES["rho_a"]))
    r_t = draw(st.floats(*EDGE_RANGES["r_t"]))
    first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
    return validate_params(r_t, max(first, second) * draw(st.floats(*EDGE_RANGES["annulus"])), rho_a, nu)


def detections(params):
    """The intruder's and the defender's positions at each capture-bound
    replay's detection, from the center and from the capture circle at gaps
    k/8 * theta_max on both sides: the start of the replay's first
    full-information piece."""
    theta_max = capture_circle_solution(params).theta_max
    states = [None] + [side * theta_max * k / 8 for k in range(1, 9) for side in (1.0, -1.0)]
    for state in states:
        detected = next((piece for piece in simulate_kinematic(state, 0.0, params).pieces
                         if piece[6] == "full"), None)
        if detected is not None:
            yield detected[2], detected[4]


def capture_off_circle(params) -> float:
    """Worst miss, in units of 1 + r_cc, of the intruder's dominance circle at
    a replay's detection (see ``detections``): the far rim's distance from
    the capture circle, or the near rim's depth inside the target.

    The far rim is the capture a doomed intruder's best reply forces; the
    replay itself steers both players to the event level's endpoint, so its
    terminal point cannot show a detection made too early.  The near rim is
    the intruder's closest reach toward the center, so a rim inside ``r_t``
    would let the intruder breach from detection.
    """
    r_cc = capture_circle_radius(params)
    worst = 0.0
    for x_a, x_d in detections(params):
        circle = apollonius(x_a, x_d, params)
        d = abs(circle.center)
        miss = max(abs(d + circle.radius - r_cc), params.r_t - (d - circle.radius))
        worst = max(worst, miss / (1.0 + r_cc))
    return worst


def arc_bounds_theta_max(params) -> bool:
    """Whether the full-information arc at the capture radius bounds the
    equilibrium's ``theta_max`` from below, the two saturating at pi together."""
    arc = guarded_arc(capture_circle_radius(params), params)
    theta_max = capture_circle_solution(params).theta_max
    return theta_max >= arc and (theta_max == math.pi) == (arc == math.pi)


def scan_objective(p: GameParams) -> tuple[list[float], list[float], list[float]]:
    """The scalar objective at the capture radius over the optimizer's grid:
    the grid times, as the array expression gives them but ending at
    ``tau_max`` exactly, the objective at each, and by how much each time
    exceeds the best-aligned start's miss, ``tau - |r_eng - r_cc|`` (positive
    for valid params, see ``_grid_peak``)."""
    r = capture_circle_radius(p)
    tau_min, tau_max = engagement_domain(p)
    taus = (tau_min + (tau_max - tau_min) * np.arange(TAU_GRID_POINTS) / (TAU_GRID_POINTS - 1)).tolist()
    taus[-1] = tau_max
    cands = [engagement_candidate(t, p) for t in taus]
    return taus, [theta_max_at(t, p) for t in taus], [c.tau - abs(abs(c.x_d_eng) - r) for c in cands]


def scan_decisions(p: GameParams, scan=None) -> tuple[list[float], int, list[int]]:
    """An exhaustive scan of the scalar objective (``scan``, ``scan_objective(p)``
    if not given): the grid times, the first index of the maximum, and every
    index saturated at pi."""
    taus, values, _ = scan or scan_objective(p)
    best = max(range(len(values)), key=lambda i: (values[i], -i))
    return taus, best, [i for i, v in enumerate(values) if v == math.pi]


def search_decisions(p: GameParams) -> tuple[list[float], int, list[int]]:
    """The same, as a solve reads them: its grid times, its first grid maximum
    by bisection (where a saturated solve's plateau starts), and, when the
    last grid time saturates at pi, the plateau from that maximum to it
    (``_grid_peak`` proves that saturation anywhere on the grid lasts to its
    last time)."""
    surface = _surface(p)
    times = [surface.time(k) for k in range(TAU_GRID_POINTS)]
    best = _grid_peak(lambda k: surface.objective(times[k]))
    plateau = list(range(best, TAU_GRID_POINTS)) if surface.objective(times[-1]) == math.pi else []
    return times, best, plateau


_FAN_BEARINGS = np.linspace(0.0, math.pi, 512)


def fan_is_stealthy(tau: float, p: GameParams) -> bool:
    """Oracle for the plateau audit: the closest approach of the walk, in
    closed form, from 512 start bearings in [0, pi] on the capture circle; a
    hold passes when its bearing leads pi/2 by 1e-6, stated here rather than
    read from the audit's ``HOLD_MARGIN`` so that the oracle does not move
    with it."""
    r = capture_circle_radius(p)
    cand = engagement_candidate(tau, p)
    eng = cand.x_d_eng
    sx, sy = r * np.cos(_FAN_BEARINGS), r * np.sin(_FAN_BEARINGS)
    path = np.hypot(eng.real - sx, eng.imag - sy)
    if np.any(path > tau * (1.0 + 1e-12) + 1e-12):
        return False
    safe_path = np.where(path > 0.0, path, 1.0)
    wx = (eng.real - sx) / safe_path + p.nu
    wy = (eng.imag - sy) / safe_path
    ww = wx * wx + wy * wy
    r0x = sx - p.tsr_radius
    t_walk = np.where(ww > 0.0, -(r0x * wx + sy * wy) / np.where(ww > 0.0, ww, 1.0), 0.0)
    t_walk = np.clip(t_walk, 0.0, np.minimum(path, tau))
    d_walk = np.hypot(r0x + t_walk * wx, sy + t_walk * wy)
    hold_sensed = np.any(path < tau) and cand.theta - 0.5 * math.pi < 1e-6
    return bool(np.all(d_walk - p.rho_a >= -1e-9)) and not hold_sensed
