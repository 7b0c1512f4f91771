"""Event-level game loop, seeded sessions, and the kinematic replay oracle."""

from __future__ import annotations

import cmath
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from perimdef.engine import (
    _HASH_BLOCK,
    MAX_DISCREPANCY,
    AgreementReport,
    _capture_side,
    _next_bearing,
    _session_mask,
    _uniform_angles,
    play_game,
    run_session,
    simulate_kinematic,
    to_world,
    uniform_angle,
    verify_outcome_agreement,
    wrap_angle,
)
from conftest import CIRCLE_TOL, PLATEAU_HEX, capture_off_circle, detections, valid_params
from perimdef.geometry import CircleClass, apollonius, assumption_clauses, classify, validate_params
from perimdef.strategy import capture_circle_radius, capture_circle_solution


def test_wrap_angle_range_and_branch():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]: -pi maps up
    assert wrap_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    assert wrap_angle(0.0) == 0.0
    rng = random.Random(3)
    for _ in range(1000):
        a, b = rng.uniform(-30, 30), rng.uniform(-30, 30)
        w = wrap_angle(a - b)
        assert -math.pi < w <= math.pi
        assert abs(wrap_angle(b - a)) == pytest.approx(abs(w), abs=1e-12)
        assert math.cos(w) == pytest.approx(math.cos(a - b), abs=1e-9)


def test_uniform_angle_deterministic_and_in_range():
    draws = [uniform_angle(12345, i) for i in range(2000)]
    assert draws == [uniform_angle(12345, i) for i in range(2000)]
    assert all(-math.pi <= a < math.pi for a in draws)
    assert len({round(a, 12) for a in draws}) > 1990
    assert uniform_angle(1, 0) != uniform_angle(2, 0)
    # crude uniformity: mean near zero, spread near pi/sqrt(3)
    mean = sum(draws) / len(draws)
    assert abs(mean) < 0.15


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 3, 2**64 - 1, -5, 2**70 + 9])
@pytest.mark.parametrize("n", [1, 2, 3000, _HASH_BLOCK, _HASH_BLOCK + 1, 3 * _HASH_BLOCK - 5])
def test_uniform_angles_match_scalar_hash(seed, n):
    """The block hash is the scalar one, within a block, at its edge and
    over several blocks, one of them short."""
    assert list(_uniform_angles(seed, n)) == [uniform_angle(seed, i) for i in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(), st.integers(1, 2 * _HASH_BLOCK + 1))
@example(-5, _HASH_BLOCK + 1)
@example(2**64 - 1, 2 * _HASH_BLOCK + 1)
@example(2**70 + 9, 2 * _HASH_BLOCK - 1)
def test_uniform_angles_match_scalar_hash_property(seed, n):
    assert list(_uniform_angles(seed, n)) == [uniform_angle(seed, i) for i in range(n)]


def test_play_from_center_always_captures(params):
    after = play_game(None, 1.234, params)
    assert after == 1.234
    point = cmath.rect(capture_circle_radius(params), after)
    assert abs(point) == pytest.approx(capture_circle_radius(params), abs=1e-9)
    assert cmath.phase(point) == pytest.approx(1.234, abs=1e-12)


def test_play_on_circle_breach_at_antipode(params):
    # theta_max < pi for these parameters, so the antipodal arrival wins
    assert capture_circle_solution(params).theta_max < math.pi
    assert play_game(0.0, math.pi, params) is None


def test_play_on_circle_zero_gap_captures(params):
    sol = capture_circle_solution(params)
    # tie at zero gap resolves to the positive side
    assert play_game(0.7, 0.7, params) == wrap_angle(0.7 + sol.phi)


def test_play_mirror_symmetry(params):
    sol = capture_circle_solution(params)
    r_cc = capture_circle_radius(params)
    gap = 0.5 * sol.theta_max
    after = [play_game(side * gap, 0.0, params) for side in (1.0, -1.0)]
    assert None not in after
    plus, minus = (cmath.rect(r_cc, angle) for angle in after)
    assert plus.real == pytest.approx(minus.real, abs=1e-12)
    assert plus.imag == pytest.approx(-minus.imag, abs=1e-12)


def test_play_depends_only_on_state_and_arrival(params):
    rng = random.Random(11)
    for _ in range(50):
        angle = rng.uniform(-math.pi, math.pi)
        theta_a = rng.uniform(-math.pi, math.pi)
        assert play_game(angle, theta_a, params) == play_game(angle, theta_a, params)


def test_capture_threshold_inclusive(params):
    sol = capture_circle_solution(params)
    assert play_game(sol.theta_max, 0.0, params) is not None
    assert play_game(sol.theta_max + 1e-9, 0.0, params) is None


def _replay(params, n, seed):
    """The defender's bearing after each game of a seeded session (None after
    a breach), played through the play_game chain."""
    angle, games = None, []
    for i in range(n):
        angle = play_game(angle, uniform_angle(seed, i), params)
        games.append(angle)
    return games


def test_session_basics(params):
    rec = run_session(params, 1, seed=9)
    assert rec.n_capture == 1 and rec.n_breach == 0
    assert rec.outcomes == (True,)

    rec = run_session(params, 500, seed=123)
    assert rec.n_capture + rec.n_breach == 500
    assert rec.n_capture == sum(rec.outcomes)
    assert rec.outcomes[0] is True
    assert rec == run_session(params, 500, seed=123)
    assert rec != run_session(params, 500, seed=124)

    with pytest.raises(ValueError):
        run_session(params, 0, seed=1)


def test_cold_plateau_cache_thread_fan_out():
    """Threads that race to the first read of a plateau solution's lazy
    bundle still play the sequential sessions."""
    p = validate_params(5.0, 10.0, 0.5, 0.5)
    assert capture_circle_solution(p).theta_max == math.pi
    seeds = list(range(1, 33))
    sequential = [run_session(p, 50, s) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 8):
            capture_circle_solution.cache_clear()
            with ThreadPoolExecutor(workers) as pool:
                parallel = list(pool.map(lambda s: run_session(p, 50, s), seeds, timeout=60))
            assert parallel == sequential
    finally:
        sys.setswitchinterval(interval)


def test_session_structure(params):
    """Captures park the defender on the capture circle; breaches reset it."""
    rec = run_session(params, 400, seed=77)
    games = _replay(params, 400, 77)
    assert rec.outcomes == tuple(after is not None for after in games)
    assert 0 < rec.n_breach < rec.n_capture
    r_cc = capture_circle_radius(params)
    for captured, after in zip(rec.outcomes, games):
        if captured:
            assert abs(cmath.rect(r_cc, after)) == pytest.approx(r_cc, abs=1e-9)
        else:
            assert after is None
    # a breach can never follow a breach: the defender resets first
    assert all(a or b for a, b in zip(rec.outcomes, rec.outcomes[1:]))


@st.composite
def _session_case(draw):
    """Params drawn as ``make_valid_params`` draws them, plus a seed and a length."""
    nu = draw(st.floats(0.25, 0.92))
    rho_a = draw(st.floats(0.05, 2.5))
    r_t = draw(st.floats(0.5, 12.0))
    first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
    try:
        p = validate_params(r_t, max(first, second) * draw(st.floats(1.01, 2.8)), rho_a, nu)
    except ValueError:
        reject()
    return p, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 300))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_session_case())
@example((validate_params(*list(PLATEAU_HEX)[0]), 9, 300))
@example((validate_params(*list(PLATEAU_HEX)[1]), 2**64 - 1, 300))
def test_session_mask_matches_play_game_chain_property(case):
    p, seed, n = case
    games = _replay(p, n, seed)
    assert run_session(p, n, seed).outcomes == tuple(after is not None for after in games)


def _bearing_chain(arrivals, theta_max, phi):
    """Capture flags of ``arrivals`` played through the scalar rule ``_next_bearing``."""
    angle, mask = None, []
    for theta_a in arrivals:
        angle = _next_bearing(angle, theta_a, theta_max, phi)
        mask.append(angle is not None)
    return mask


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_session_loop_captures_a_gap_of_exactly_theta_max(sign):
    """theta_max is read off the gap itself, so the tie is exact; one ulp
    narrower it is a breach.  The first bearing is wrapped from the center
    (``wrap_angle(-0.3)`` is not -0.3), and the third arrival sits on the
    mirrored evasion bearing of the tie's side, where the other side would
    breach."""
    arrivals = [-0.3, -0.3 - sign, -0.3 + sign]
    gap = wrap_angle(wrap_angle(-0.3) - arrivals[1])
    theta_max = abs(gap)
    assert gap == sign * theta_max
    phi = 2.0
    assert list(_session_mask(arrivals, theta_max, phi)) == [True, True, True]
    assert _bearing_chain(arrivals, theta_max, phi) == [True, True, True]
    narrower = math.nextafter(theta_max, 0.0)
    assert list(_session_mask(arrivals, narrower, phi)) == [True, False, True]
    assert _bearing_chain(arrivals, narrower, phi) == [True, False, True]


def test_session_loop_takes_side_plus_one_at_a_zero_gap():
    """A gap of exactly 0 mirrors to side +1: the defender ends at 0.5 + phi,
    where the third arrival is captured; side -1 would leave a gap of 2 phi."""
    theta_max, phi = 0.5, 1.0
    arrivals = [0.5, 0.5, 0.5 + phi]
    assert wrap_angle(wrap_angle(0.5) - 0.5) == 0.0
    assert list(_session_mask(arrivals, theta_max, phi)) == [True, True, True]
    assert _bearing_chain(arrivals, theta_max, phi) == [True, True, True]
    assert list(_session_mask([0.5, 0.5, 0.5 - phi], theta_max, phi)) == [True, True, False]


def test_session_loop_restarts_from_the_center_after_a_breach():
    """After a breach the next arrival is captured from the center and the
    defender ends at its bearing, whatever the gap to its old one."""
    theta_max, phi = 0.5, 1.0
    arrivals = [0.0, 3.0, -2.9, -2.9 + 0.4, 1.0, 2.5, 2.5]
    want = [True, False, True, True, False, True, True]
    assert list(_session_mask(arrivals, theta_max, phi)) == want
    assert _bearing_chain(arrivals, theta_max, phi) == want


def test_kinematic_matches_event_level_from_center(params):
    after = play_game(None, 0.7, params)
    traj = simulate_kinematic(None, 0.7, params)
    assert traj.captured
    assert abs(traj.end - cmath.rect(capture_circle_radius(params), after)) <= 5e-3


def test_kinematic_matches_event_level_on_circle(params):
    after = play_game(0.4, -0.9, params)
    assert after is not None
    traj = simulate_kinematic(0.4, -0.9, params)
    assert traj.captured
    assert abs(traj.end - cmath.rect(capture_circle_radius(params), after)) <= 5e-3


def test_kinematic_breach_sends_defender_home(params):
    angle = 0.0
    theta_a = 2.5
    assert play_game(angle, theta_a, params) is None
    traj = simulate_kinematic(angle, theta_a, params)
    assert not traj.captured
    assert abs(traj.x_d) <= 1e-3
    r_a = abs(traj.end)
    assert params.r_t - params.nu * 1e-4 <= r_a <= params.r_t + 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_params())
def test_breach_bound_replay_is_never_detected_property(p):
    # A defender walking home from a gap beyond theta_max is never sensed, so
    # the intruder's radial run reaches the target rim undetected.
    theta_max = capture_circle_solution(p).theta_max
    if theta_max == math.pi:
        return  # saturated: no gap is breach-bound
    for k in range(1, 9):
        gap = theta_max + (math.pi - theta_max) * k / 8
        for side in (1.0, -1.0):
            traj = simulate_kinematic(side * gap, 0.0, p)
            assert all(piece[6] == "partial" for piece in traj.pieces)
            assert not traj.captured
            assert abs(abs(traj.end) - p.r_t) <= 1e-9 * (1.0 + p.r_t)


def test_trajectory_step_bounds_and_phases(params):
    dt = 1e-3
    samples = list(simulate_kinematic(None, -1.1, params).sample(dt))
    seen_full = False
    steps = list(zip(samples, samples[1:]))
    for k, (a, b) in enumerate(steps):
        step = b[0] - a[0]
        if k == len(steps) - 1:  # to the terminal instant
            assert 0.0 < step <= dt * (1.0 + 1e-9)
        else:
            assert step == pytest.approx(dt, rel=1e-9)
        assert math.hypot(b[1] - a[1], b[2] - a[2]) <= params.nu * step * (1.0 + 1e-9)
        assert math.hypot(b[3] - a[3], b[4] - a[4]) <= step * (1.0 + 1e-9)
        if a[5] == "full":
            seen_full = True
            assert b[5] == "full"  # detection is irreversible
    assert seen_full


def test_committed_path_stays_in_dominance_region(params):
    """After detection the intruder's straight run never leaves the region it
    dominates at the moment of detection."""
    dt = 1e-3
    traj = simulate_kinematic(0.2, -0.8, params)
    full = [(complex(s[1], s[2]), complex(s[3], s[4])) for s in traj.sample(dt) if s[5] == "full"]
    x_a0, x_d0 = full[0]
    slack = 5e-3  # discrete detection lags the exact crossing by O(dt)
    for x_a, _ in full:
        assert params.nu * abs(x_a - x_d0) >= abs(x_a - x_a0) - slack


def test_to_world_mapping_round_trip():
    p = 2 - 1j
    w = to_world(p, 0.5, -1.0)
    assert abs(w) == pytest.approx(abs(p), abs=1e-12)
    back = w * cmath.rect(1.0, -0.5)
    assert back.real == pytest.approx(2.0, abs=1e-12)
    assert back.imag == pytest.approx(1.0, abs=1e-12)


def test_outcome_agreement_small_run(params):
    report = verify_outcome_agreement(params, 40, seed=7)
    assert report.n_games == 40
    assert report.n_mismatches == 0
    assert report.n_compared + report.n_boundary_skipped == 40
    assert report.max_capture_point_error <= 5e-3
    assert report.max_breach_defender_offset <= 1e-3
    assert report.all_agree


def test_all_agree_applies_the_capture_point_tolerance():
    fields = dict(n_games=3, n_compared=3, n_boundary_skipped=0, n_mismatches=0,
                  max_capture_point_error=MAX_DISCREPANCY, max_circle_distance=0.0,
                  max_breach_defender_offset=0.0)
    assert AgreementReport(**fields).all_agree
    fields["max_capture_point_error"] = math.nextafter(MAX_DISCREPANCY, 1.0)
    assert not AgreementReport(**fields).all_agree
    assert not AgreementReport(**{**fields, "max_capture_point_error": 0.0, "n_mismatches": 1}).all_agree


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
def test_kinematic_rejects_bad_resolution(params, dt):
    traj = simulate_kinematic(None, 0.7, params)
    with pytest.raises(ValueError, match="dt"):
        traj.sample(dt)


def _state_ids(cases):
    """Test ids ``state<i>-<theta_a>`` for (state, theta_a) cases: pytest would
    name a case by its bearings, and a center state by ``None``."""
    return [f"state{i}-{theta_a}" for i, (_, theta_a) in enumerate(cases)]


NONFINITE_GAMES = [(None, math.nan), (math.nan, 0.3), (0.3, math.inf)]


@pytest.mark.parametrize("state, theta_a", NONFINITE_GAMES, ids=_state_ids(NONFINITE_GAMES))
def test_kinematic_rejects_nonfinite_bearing(params, state, theta_a):
    for play in (play_game, simulate_kinematic):
        with pytest.raises(ValueError, match="finite"):
            play(state, theta_a, params)


# Plateaus whose first grid time past pi/2 leads it by less than HOLD_MARGIN:
# there the replay's detection of a hold at tau is a graze (theta - pi/2 =
# 6.7e-9), or comes before tau (theta - pi/2 = -3.5e-5).
GRAZE_PLATEAU = (2.7654012936864945, 2.610318968761654, 2.1081991085555707, 0.11744478489412456)
EARLY_PLATEAU = (8.299055581713581, 20.493301431276663, 1.2050155582037192, 0.7232170088097913)


def test_outcome_agreement_on_a_grazing_plateau():
    report = verify_outcome_agreement(validate_params(*GRAZE_PLATEAU), 500, seed=1)
    assert report.n_mismatches == 0
    assert report.all_agree


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_params())
@example(validate_params(*EARLY_PLATEAU))
@example(validate_params(*GRAZE_PLATEAU))
def test_replay_detection_forces_captures_onto_the_circle_property(p):
    # Every chosen engagement is sensed at its own time, so the intruder's best
    # reply at the replay's detection ends on the capture circle, and no reply
    # reaches inside the target.
    assert capture_off_circle(p) <= CIRCLE_TOL


# Stress seed 14's draw 133: with the detection time from the quadratic's
# root, the far rim at detection lies 1.57e-8 * (1 + r_cc) off the capture
# circle; the closest-approach root leaves 6.2e-14.
SEED14_DRAW133 = (6.75599848460602, 26.457645042942183, 0.06581561062101376, 0.9876213281227301)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the detection root is not yet the closest-approach root")
def test_replay_detection_forces_the_capture_onto_the_circle_at_seed14_draw133():
    assert capture_off_circle(validate_params(*SEED14_DRAW133)) <= CIRCLE_TOL


# 720 intruder headings, evenly spaced.
HEADINGS = [cmath.rect(1.0, 2.0 * math.pi * k / 720) for k in range(720)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(valid_params())
@example(validate_params(5.0, 10.0, 1.0, 0.8))
@example(validate_params(5.0, 14.0, 1.0, 0.9))
@example(validate_params(5.0, 10.0, 0.5, 0.5))
@example(validate_params(2.0, 30.0, 0.05, 0.95))
@example(validate_params(*GRAZE_PLATEAU))
def test_no_intruder_heading_beats_the_far_rim_property(p):
    # The intruder's half of the equilibrium: at each capture-bound detection,
    # whichever way the intruder runs, the defender meets it where the heading
    # leaves the dominance circle.  No such intercept ends farther out than
    # the far rim or deeper inside the target than the near rim, and the
    # circle never reaches past the sensing region.
    # Over 1,205 draws the worst intercept was 2.2e-16 past either rim, in
    # units of the far rim's radius.
    for x_a, x_d in detections(p):
        circle = apollonius(x_a, x_d, p)
        assert classify(circle, p) in (CircleClass.CAPTURE_GUARANTEED, CircleClass.BREACH_POSSIBLE)
        d = abs(circle.center)
        far, near = d + circle.radius, d - circle.radius
        rel = x_a - circle.center
        for h in HEADINGS:
            b = (rel.conjugate() * h).real
            s = math.sqrt(b * b - (abs(rel) ** 2 - circle.radius ** 2)) - b
            q = abs(x_a + h * s)
            assert q <= far * (1.0 + 1e-12)
            assert max(0.0, p.r_t - q) <= max(0.0, p.r_t - near) + 1e-12 * far


@pytest.mark.parametrize("n_games", [0, -3])
def test_outcome_agreement_rejects_empty_session(params, n_games):
    with pytest.raises(ValueError, match="n_games"):
        verify_outcome_agreement(params, n_games, seed=1)


def _walk(pos, target, speed, t):
    """Positions at times ``t`` of a straight walk toward ``target`` that stops on arrival."""
    d = target - pos
    dist = math.hypot(d[0], d[1])
    if dist == 0.0:
        return np.broadcast_to(pos, (t.size, 2))
    return pos + np.outer(np.minimum(speed * t, dist), d / dist)


def _first(mask):
    return int(np.argmax(mask)) if mask.any() else None


def _stepped_terminal(state, theta_a, params, h):
    """Fixed-step reference for ``simulate_kinematic``.

    The same routes, evaluated at multiples of ``h``: detection and breach
    are tested after each step, and capture is declared at separation ``h``
    and reported at the midpoint, so end points converge at rate O(h).
    Returns the capture flag and the end point.
    """
    r_cc = capture_circle_radius(params)
    u = np.array([math.cos(theta_a), math.sin(theta_a)])
    xa = params.tsr_radius * u
    if state is None:
        xd = np.zeros(2)
        waypoint = (params.r_t - params.rho_a / (1.0 + params.nu)) * u
        dest = r_cc * u
    else:
        sol = capture_circle_solution(params)
        mirror = _capture_side(state, theta_a, sol.theta_max)
        xd = r_cc * np.array([math.cos(state), math.sin(state)])
        if mirror is None:
            waypoint, dest = np.zeros(2), None  # walk home; the intruder keeps its radial run
        else:
            eng = to_world(sol.candidate.x_d_eng, theta_a, mirror)
            x_p = to_world(sol.x_p, theta_a, mirror)
            waypoint, dest = np.array([eng.real, eng.imag]), np.array([x_p.real, x_p.imag])
    a_target, d_target, detected = np.zeros(2), waypoint, False
    block = h * np.arange(1, 4097)
    for _ in range(1000):
        a = _walk(xa, a_target, params.nu, block)
        d = _walk(xd, d_target, 1.0, block)
        sep = np.hypot(a[:, 0] - d[:, 0], a[:, 1] - d[:, 1])
        hits = []  # capture beats breach beats detection on ties
        if detected and dest is not None:
            hits.append((_first(sep <= h), "capture"))
        hits.append((_first(np.hypot(a[:, 0], a[:, 1]) <= params.r_t), "breach"))
        if not detected:
            hits.append((_first(sep <= params.rho_a), "detect"))
        hits = [hit for hit in hits if hit[0] is not None]
        i, kind = min(hits, key=lambda hit: hit[0], default=(block.size - 1, None))
        xa, xd = a[i], d[i]
        if kind == "capture":
            return True, complex(*(0.5 * (xa + xd)))
        if kind == "breach":
            return False, complex(*xa)
        if kind == "detect":
            detected = True
            if dest is not None:
                a_target = d_target = dest
    raise AssertionError("stepped replay did not terminate")


# A capture from the center, captures from the circle on either mirror side,
# and two breach-bound games, whose breaches come on the radial run.
CONVERGENCE_GAMES = [
    (None, 0.7),
    (0.4, -0.9),
    (-0.4, 0.9),
    (0.0, 2.5),
    (0.2, -2.9),
]


def test_stepped_replay_converges_to_exact_terminals(params):
    sol = capture_circle_solution(params)
    sides = {_capture_side(s, th, sol.theta_max) for s, th in CONVERGENCE_GAMES if s is not None}
    assert sides == {1.0, -1.0, None}
    exact = [simulate_kinematic(s, th, params) for s, th in CONVERGENCE_GAMES]
    assert [traj.captured for traj in exact] == [True] * 3 + [False] * 2
    capture_errors = []
    for h in (4e-4, 2e-4, 1e-4):
        errors = []
        for (state, theta_a), want in zip(CONVERGENCE_GAMES, exact):
            captured, end = _stepped_terminal(state, theta_a, params, h)
            assert captured is want.captured
            errors.append(abs(end - want.end))
        assert max(errors) <= 10.0 * h
        capture_errors.append(max(errors[:3]))
    assert capture_errors[2] < capture_errors[1] < capture_errors[0]


@pytest.mark.parametrize("state, theta_a", CONVERGENCE_GAMES, ids=_state_ids(CONVERGENCE_GAMES))
def test_pieces_tile_the_game(params, state, theta_a):
    traj = simulate_kinematic(state, theta_a, params)
    starts = [piece[0] for piece in traj.pieces]
    ends = [piece[1] for piece in traj.pieces]
    assert starts[0] == 0.0
    assert starts[1:] == ends[:-1]
    assert ends[-1] == traj.t
    start, end, a, va, d, vd, _ = traj.pieces[-1]
    assert abs(a + va * (end - start) - traj.x_a) <= 1e-9
    assert abs(d + vd * (end - start) - traj.x_d) <= 1e-9


@pytest.mark.parametrize("state, theta_a", CONVERGENCE_GAMES, ids=_state_ids(CONVERGENCE_GAMES))
def test_sample_times_are_multiples_of_dt_then_terminal(params, state, theta_a):
    dt = 1e-3
    traj = simulate_kinematic(state, theta_a, params)
    samples = list(traj.sample(dt))
    times = [s[0] for s in samples]
    assert times[:-1] == [k * dt for k in range(len(times) - 1)]
    assert times[-2] < traj.t == times[-1] <= (len(times) - 1) * dt
    assert samples[-1][1:5] == (traj.x_a.real, traj.x_a.imag, traj.x_d.real, traj.x_d.imag)
