"""Event-level game loop, seeded sessions, and the kinematic replay oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from perimdef.engine import (
    BreachAt,
    CaptureAt,
    GameResult,
    Phase,
    play_game,
    run_session,
    simulate_kinematic,
    to_world,
    uniform_angle,
    verify_outcome_agreement,
    wrap_angle,
)
from perimdef.geometry import Point2, assumption_clauses, validate_params
from perimdef.strategy import (
    AtCenter,
    OnCaptureCircle,
    capture_circle_radius,
    capture_circle_solution,
)


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


def test_play_from_center_always_captures(params):
    out = play_game(AtCenter(), 1.234, params)
    assert out.result is GameResult.CAPTURE
    assert out.defender_angle_before is None
    assert out.defender_state_after == OnCaptureCircle(1.234)
    assert out.capture_point.norm() == pytest.approx(capture_circle_radius(params), abs=1e-9)
    assert out.capture_point.bearing() == pytest.approx(1.234, abs=1e-12)


def test_play_on_circle_breach_at_antipode(params):
    # theta_max < pi for these parameters, so the antipodal arrival wins
    assert capture_circle_solution(params).theta_max < math.pi
    out = play_game(OnCaptureCircle(0.0), math.pi, params)
    assert out.result is GameResult.BREACH
    assert out.defender_state_after == AtCenter()
    assert out.capture_point is None


def test_play_on_circle_zero_gap_captures(params):
    sol = capture_circle_solution(params)
    out = play_game(OnCaptureCircle(0.7), 0.7, params)
    assert out.result is GameResult.CAPTURE
    # tie at zero gap resolves to the positive side
    assert out.defender_state_after == OnCaptureCircle(wrap_angle(0.7 + sol.phi))


def test_play_mirror_symmetry(params):
    sol = capture_circle_solution(params)
    gap = 0.5 * sol.theta_max
    plus = play_game(OnCaptureCircle(gap), 0.0, params)
    minus = play_game(OnCaptureCircle(-gap), 0.0, params)
    assert plus.result is minus.result is GameResult.CAPTURE
    assert plus.capture_point.x == pytest.approx(minus.capture_point.x, abs=1e-12)
    assert plus.capture_point.y == pytest.approx(-minus.capture_point.y, abs=1e-12)


def test_play_depends_only_on_state_and_arrival(params):
    rng = random.Random(11)
    for _ in range(50):
        state = OnCaptureCircle(rng.uniform(-math.pi, math.pi))
        theta_a = rng.uniform(-math.pi, math.pi)
        assert play_game(state, theta_a, params) == play_game(state, theta_a, params)


def test_capture_threshold_inclusive(params):
    sol = capture_circle_solution(params)
    out = play_game(OnCaptureCircle(sol.theta_max), 0.0, params)
    assert out.result is GameResult.CAPTURE
    out = play_game(OnCaptureCircle(sol.theta_max + 1e-9), 0.0, params)
    assert out.result is GameResult.BREACH


def _replay(params, n, seed):
    """Per-game outcomes of a seeded session, played through the play_game chain."""
    state, games = AtCenter(), []
    for i in range(n):
        games.append(play_game(state, uniform_angle(seed, i), params))
        state = games[-1].defender_state_after
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


def test_session_structure(params):
    """Captures park the defender on the capture circle; breaches reset it."""
    rec = run_session(params, 400, seed=77)
    games = _replay(params, 400, 77)
    assert rec.outcomes == tuple(out.result is GameResult.CAPTURE for out in games)
    assert 0 < rec.n_breach < rec.n_capture
    r_cc = capture_circle_radius(params)
    for captured, out in zip(rec.outcomes, games):
        if captured:
            assert out.capture_point.norm() == pytest.approx(r_cc, abs=1e-9)
            assert isinstance(out.defender_state_after, OnCaptureCircle)
        else:
            assert out.defender_state_after == AtCenter()
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
def test_session_mask_matches_play_game_chain_property(case):
    p, seed, n = case
    games = _replay(p, n, seed)
    assert run_session(p, n, seed).outcomes == tuple(
        out.result is GameResult.CAPTURE for out in games
    )


def test_kinematic_matches_event_level_from_center(params):
    out = play_game(AtCenter(), 0.7, params)
    traj = simulate_kinematic(AtCenter(), 0.7, params, dt=1e-4, eps_capture=1e-3,
                              record_every=None)
    assert isinstance(traj.terminal, CaptureAt)
    assert traj.terminal.point.distance_to(out.capture_point) <= 5e-3


def test_kinematic_matches_event_level_on_circle(params):
    state = OnCaptureCircle(0.4)
    out = play_game(state, -0.9, params)
    assert out.result is GameResult.CAPTURE
    traj = simulate_kinematic(state, -0.9, params, dt=1e-4, record_every=None)
    assert isinstance(traj.terminal, CaptureAt)
    assert traj.terminal.point.distance_to(out.capture_point) <= 5e-3


def test_kinematic_breach_sends_defender_home(params):
    state = OnCaptureCircle(0.0)
    theta_a = 2.5
    assert play_game(state, theta_a, params).result is GameResult.BREACH
    traj = simulate_kinematic(state, theta_a, params, dt=1e-4, record_every=None)
    assert isinstance(traj.terminal, BreachAt)
    assert traj.samples[-1].x_d.norm() <= 1e-3
    r_a = traj.terminal.point.norm()
    assert params.r_t - params.nu * traj.dt <= r_a <= params.r_t + 1e-9


def test_trajectory_step_bounds_and_phases(params):
    dt = 1e-3
    traj = simulate_kinematic(AtCenter(), -1.1, params, dt=dt, record_every=1)
    assert traj.dt == dt
    seen_full = False
    for a, b in zip(traj.samples, traj.samples[1:]):
        step = b.t - a.t
        assert step == pytest.approx(dt, rel=1e-9)
        assert b.x_a.distance_to(a.x_a) <= params.nu * step * (1.0 + 1e-9)
        assert b.x_d.distance_to(a.x_d) <= step * (1.0 + 1e-9)
        if a.phase is Phase.FULL:
            seen_full = True
            assert b.phase is Phase.FULL  # detection is irreversible
    assert seen_full


def test_committed_path_stays_in_dominance_region(params):
    """After detection the intruder's straight run never leaves the region it
    dominates at the moment of detection."""
    dt = 1e-3
    traj = simulate_kinematic(OnCaptureCircle(0.2), -0.8, params, dt=dt, record_every=1)
    full = [s for s in traj.samples if s.phase is Phase.FULL]
    x_a0, x_d0 = full[0].x_a, full[0].x_d
    slack = 5e-3  # discrete detection lags the exact crossing by O(dt)
    for s in full:
        assert params.nu * s.x_a.distance_to(x_d0) >= s.x_a.distance_to(x_a0) - slack


def test_record_every_none_keeps_endpoints(params):
    traj = simulate_kinematic(AtCenter(), 0.3, params, record_every=None)
    assert len(traj.samples) == 2
    assert traj.samples[0].t == 0.0
    assert traj.samples[1].t > 0.0


def test_to_world_mapping_round_trip():
    p = Point2(2.0, -1.0)
    w = to_world(p, 0.5, -1.0)
    assert w.norm() == pytest.approx(p.norm(), abs=1e-12)
    back = w.rotated(-0.5)
    assert back.x == pytest.approx(2.0, abs=1e-12)
    assert back.y == pytest.approx(1.0, abs=1e-12)


def test_outcome_agreement_small_run(params):
    report = verify_outcome_agreement(params, 40, seed=7, dt=1e-4, eps_capture=1e-3)
    assert report.n_games == 40
    assert report.n_mismatches == 0
    assert report.n_compared + report.n_boundary_skipped == 40
    assert report.max_capture_point_error <= 5e-3
    assert report.max_breach_defender_offset <= 1e-3
    assert report.all_agree


@pytest.mark.parametrize("dt, eps_capture", [
    (math.nan, 1e-3), (math.inf, 1e-3), (0.0, 1e-3),
    (1e-3, math.nan), (1e-3, math.inf), (1e-3, 0.0),
])
def test_kinematic_rejects_bad_resolution(params, dt, eps_capture):
    with pytest.raises(ValueError):
        simulate_kinematic(AtCenter(), 0.7, params, dt=dt, eps_capture=eps_capture)


@pytest.mark.parametrize("n_games", [0, -3])
def test_outcome_agreement_rejects_empty_session(params, n_games):
    with pytest.raises(ValueError, match="n_games"):
        verify_outcome_agreement(params, n_games, seed=1)


def test_outcome_agreement_error_shrinks_with_dt(params):
    coarse = verify_outcome_agreement(params, 12, seed=3, dt=4e-4, eps_capture=4e-4)
    fine = verify_outcome_agreement(params, 12, seed=3, dt=1e-4, eps_capture=1e-4)
    assert fine.max_capture_point_error < coarse.max_capture_point_error
    assert fine.max_capture_point_error <= 0.3 * coarse.max_capture_point_error + 1e-6
