"""Guarded arc, engagement surface, reachability bound, and evasion endpoint.

The closed forms here have no in-repo derivation, so each is pinned against
a brute-force oracle: angular bisection over breach margins for the guarded
arc, and exhaustive grid search plus ternary refinement for the engagement
optimizer.
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimdef.geometry import (
    GameParams, Point2, assumption_clauses, breach_margin_point, validate_params,
)
from perimdef.strategy import (
    TAU_GRID_POINTS,
    _objective_grid,
    _plateau_is_stealthy,
    InfeasibleTau,
    InvalidCandidate,
    OutOfRange,
    capture_circle_radius,
    capture_circle_solution,
    engagement_candidate,
    engagement_domain,
    engagement_theta,
    evasion_point,
    guarded_arc,
    optimize_engagement,
    sufficiency_holds,
    engagement_radius,
    theta_max_at,
)

# Regression anchors for the baseline parameters, frozen after cross-checking
# against the brute-force oracles below.
GUARDED_ARC_AT_CAPTURE_RADIUS = 1.8584730829635667
THETA_MAX_STAR = 2.0073003064386796
# float.hex of (tau, theta_max, phi) of the baseline optimum, for bit-level regressions.
OPTIMUM_HEX = ("0x1.7d164377f9e7cp+3", "0x1.00ef3768b3d40p+1", "-0x1.9c4f93b3f31c4p-5")
# float.hex of (tau, phi) of two saturated optima: at (5, 10, 0.5, 0.5) the
# first saturated time fails its audit, at (5, 12, 1, 0.75) it passes.
PLATEAU_HEX = {
    (5.0, 10.0, 0.5, 0.5): ("0x1.356c05ac15b02p+4", "-0x1.000aa3a89065ep-5"),
    (5.0, 12.0, 1.0, 0.75): ("0x1.cc25527930955p+3", "-0x1.7830f92cf76a4p-3"),
}


# ---------------------------------------------------------------------------
# guarded arc


def _guarded_arc_oracle(r: float, params: GameParams, iters: int = 50) -> float:
    """Largest safe separation by bisection on the breach margin.

    Capture is possible exactly when no point of the target rim is reachable
    by the intruder first, which is the breach-margin sign; this searches
    arrival angles directly instead of using the closed form.
    """
    x_d = Point2(r, 0.0)

    def breachable(sep: float) -> bool:
        x_a = Point2.from_polar(params.tsr_radius, sep)
        margin, _ = breach_margin_point(x_a, x_d, params)
        return margin > 0.0

    if not breachable(math.pi):
        return math.pi
    lo, hi = 0.0, math.pi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if breachable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_guarded_arc_full_circle_near_center(params):
    assert guarded_arc(0.0, params) == math.pi
    assert guarded_arc(3.0, params) == math.pi


def test_guarded_arc_threshold_inclusive(params):
    threshold = params.rho_t / params.nu - params.r_t
    assert threshold == pytest.approx(7.5, abs=1e-12)
    assert guarded_arc(threshold, params) == math.pi


def test_guarded_arc_regression_at_capture_radius(params):
    value = guarded_arc(capture_circle_radius(params), params)
    assert 0.0 < value < math.pi
    assert value == pytest.approx(GUARDED_ARC_AT_CAPTURE_RADIUS, abs=1e-12)


@pytest.mark.parametrize("r", [9.444444444444445, 8.0, 10.0, 12.5, 15.0])
def test_guarded_arc_matches_breach_margin_oracle(params, r):
    assert guarded_arc(r, params) == pytest.approx(
        _guarded_arc_oracle(r, params), abs=5e-6
    )


def test_guarded_arc_out_of_range(params):
    with pytest.raises(OutOfRange):
        guarded_arc(params.tsr_radius + 1e-6, params)
    with pytest.raises(OutOfRange):
        guarded_arc(-0.1, params)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_engagement_rejects_nonpositive_radius(params, r):
    tau = 0.5 * sum(engagement_domain(params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            optimize_engagement(r, params)
        with pytest.raises(OutOfRange):
            theta_max_at(tau, engagement_theta(tau, params), r, params)


def test_guarded_arc_nonincreasing(params):
    threshold = params.rho_t / params.nu - params.r_t
    grid = np.linspace(threshold + 1e-9, params.tsr_radius, 200)
    values = [guarded_arc(float(r), params) for r in grid]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-12
        if lo < math.pi:
            assert hi < lo


# ---------------------------------------------------------------------------
# engagement surface


def test_engagement_domain_baseline(params):
    tau_min, tau_max = engagement_domain(params)
    # tau_min = (rho_t - (beta+gamma)*rho_a)/nu = (10 - 4)/0.8
    assert tau_min == pytest.approx(7.5, abs=1e-9)
    assert tau_max == pytest.approx((10.0 - 4.0 / 9.0) / 0.8, abs=1e-9)
    assert engagement_theta(tau_min, params) == pytest.approx(0.0, abs=1e-7)
    assert engagement_theta(tau_max, params) == pytest.approx(math.pi, abs=1e-7)


def test_engagement_theta_feasible_everywhere_on_domain(params):
    tau_min, tau_max = engagement_domain(params)
    inner = params.r_t + params.gamma * params.rho_a
    for tau in np.linspace(tau_min, tau_max, 1000):
        theta = engagement_theta(float(tau), params)
        assert 0.0 <= theta <= math.pi
        cand = engagement_candidate(float(tau), params)
        center = cand.x_a_eng - params.beta * params.rho_a * Point2.from_polar(1.0, theta)
        assert abs(center.norm() - inner) <= 1e-9 * (1.0 + inner)


def test_engagement_theta_outside_domain_raises(params):
    tau_min, tau_max = engagement_domain(params)
    with pytest.raises(InfeasibleTau):
        engagement_theta(tau_min - 0.1, params)
    with pytest.raises(InfeasibleTau):
        engagement_theta(tau_max + 0.1, params)


def test_engagement_surface_membership_random_params(random_valid_params):
    rng = random.Random(31)
    for _ in range(50):
        p = random_valid_params(rng)
        tau_min, tau_max = engagement_domain(p)
        inner = p.r_t + p.gamma * p.rho_a
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            cand = engagement_candidate(tau_min + frac * (tau_max - tau_min), p)
            center = cand.x_a_eng - p.beta * p.rho_a * Point2.from_polar(1.0, cand.theta)
            assert abs(center.norm() - inner) <= 1e-9 * (1.0 + inner)
            assert cand.x_d_eng.distance_to(cand.x_a_eng) == pytest.approx(p.rho_a, abs=1e-9)


# ---------------------------------------------------------------------------
# reachability bound


def test_theta_max_collinear_limits(params):
    tau = 9.0
    theta = engagement_theta(tau, params)
    r_eng = engagement_radius(tau, theta, params)
    phi_eng = engagement_candidate(tau, params).x_d_eng.bearing()
    # defender exactly tau beyond the engagement point: only one bearing works
    assert theta_max_at(tau, theta, tau + r_eng, params) == pytest.approx(phi_eng, abs=1e-9)
    # defender close enough to make the point from any bearing
    assert theta_max_at(tau, theta, 0.5 * (tau - r_eng), params) == math.pi


def test_theta_max_rejects_non_surface_candidates(params):
    with pytest.raises(InvalidCandidate):
        theta_max_at(9.0, engagement_theta(9.0, params) + 0.01, 9.0, params)


def test_r_eng_closed_form_matches_constructed_point(random_valid_params):
    rng = random.Random(8)
    for _ in range(100):
        p = random_valid_params(rng)
        tau_min, tau_max = engagement_domain(p)
        cand = engagement_candidate(rng.uniform(tau_min, tau_max), p)
        closed = engagement_radius(cand.tau, cand.theta, p)
        assert abs(cand.x_d_eng.norm() - closed) <= 1e-9 * (1.0 + closed)


def _brute_force_solution(r: float, params: GameParams, n: int = 2000) -> float:
    """Independent maximizer: dense grid plus ternary refinement."""
    tau_min, tau_max = engagement_domain(params)

    def f(tau: float) -> float:
        return theta_max_at(tau, engagement_theta(tau, params), r, params)

    taus = np.linspace(tau_min, tau_max, n)
    values = [f(float(t)) for t in taus]
    i = int(np.argmax(values))
    lo = float(taus[max(0, i - 1)])
    hi = float(taus[min(n - 1, i + 1)])
    while hi - lo > 1e-10:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return max(values[i], f(0.5 * (lo + hi)))


def test_optimizer_regression_and_oracle(params):
    sol = optimize_engagement(capture_circle_radius(params), params)
    assert sol.theta_max == pytest.approx(THETA_MAX_STAR, abs=1e-9)
    assert sol.theta_max == pytest.approx(
        _brute_force_solution(capture_circle_radius(params), params), abs=1e-6
    )


def test_optimizer_dominates_fresh_audit_grid(params):
    r = capture_circle_radius(params)
    sol = optimize_engagement(r, params)
    tau_min, tau_max = engagement_domain(params)
    for tau in np.linspace(tau_min, tau_max, 5000):
        value = theta_max_at(float(tau), engagement_theta(float(tau), params), r, params)
        assert sol.theta_max >= value - 1e-7


def test_optimizer_bits_pinned(params):
    sol = optimize_engagement(capture_circle_radius(params), params)
    assert (sol.candidate.tau.hex(), sol.theta_max.hex(), sol.phi.hex()) == OPTIMUM_HEX


def _grid_decisions(values) -> tuple[int, list[int]]:
    """First index of the maximum, and every index saturated at pi."""
    values = list(values)
    best = max(range(len(values)), key=lambda i: (values[i], -i))
    return best, [i for i, v in enumerate(values) if v == math.pi]


def test_objective_grid_decisions_match_scalar_oracle(params, random_valid_params):
    """The numpy scan may differ from the scalar chain in the last bits, but
    never in what the optimizer reads from it.  Besides the capture-circle
    radius, a random radius per case reaches the 0 and pi branches."""
    rng = random.Random(0)
    cases = [params] + [random_valid_params(rng) for _ in range(200)]
    radius_rng = random.Random(1)
    saturated_cases = 0
    for p in cases:
        tau_min, tau_max = engagement_domain(p)
        taus = tau_min + (tau_max - tau_min) * np.arange(1024) / 1023
        for r in (capture_circle_radius(p), radius_rng.uniform(0.05, p.tsr_radius)):
            scalar = [theta_max_at(t, engagement_theta(t, p), r, p) for t in taus.tolist()]
            grid = _objective_grid(taus, r, p)
            assert _grid_decisions(grid) == _grid_decisions(scalar)
            assert np.allclose(grid, scalar, rtol=0.0, atol=1e-12)
            saturated_cases += scalar[_grid_decisions(scalar)[0]] == math.pi
    # both branches of the optimizer are exercised
    assert 0 < saturated_cases < 2 * len(cases)


def test_objective_grid_rejects_times_outside_window(params):
    tau_min, tau_max = engagement_domain(params)
    r = capture_circle_radius(params)
    inside = np.linspace(tau_min, tau_max, 64)
    assert _objective_grid(inside, r, params).shape == (64,)
    for outside in (tau_min - 0.1, tau_max + 0.1):
        with pytest.raises(InfeasibleTau):
            _objective_grid(np.append(inside, outside), r, params)


def _saturated_grid_times(r: float, p: GameParams) -> list[float]:
    """The optimizer's grid times at which the scalar objective saturates at pi."""
    tau_min, tau_max = engagement_domain(p)
    grid = tau_min + (tau_max - tau_min) * np.arange(TAU_GRID_POINTS) / (TAU_GRID_POINTS - 1)
    return [tau for tau in grid.tolist()
            if theta_max_at(tau, engagement_theta(tau, p), r, p) == math.pi]


def test_plateau_choice_matches_linear_scan(random_valid_params):
    """On a saturated optimum the chosen time is the first saturated grid time
    whose approach audit passes, or the first saturated time if none does."""
    cases = [validate_params(*key) for key in PLATEAU_HEX]
    rng = random.Random(0)
    cases += [random_valid_params(rng) for _ in range(20)]
    n_plateau = 0
    for p in cases:
        r = capture_circle_radius(p)
        sol = optimize_engagement(r, p)
        if sol.theta_max != math.pi:
            continue
        n_plateau += 1
        sat = _saturated_grid_times(r, p)
        want = next((tau for tau in sat if _plateau_is_stealthy(tau, p, r)), sat[0])
        assert sol.candidate.tau == want
    assert n_plateau >= 10


@pytest.mark.parametrize("first_pass", [None, 0, 1, -1])
def test_plateau_search_with_stub_audit(monkeypatch, first_pass):
    """With an audit that passes from one saturated time on, the search picks
    that time, or the first saturated time when no time passes, in at most
    1 + ceil(log2(len)) audits."""
    p = validate_params(5.0, 10.0, 0.5, 0.5)
    r = capture_circle_radius(p)
    sat = _saturated_grid_times(r, p)
    cut = math.inf if first_pass is None else sat[first_pass]
    calls = []

    def audit(tau, params, r):
        calls.append(tau)
        return tau >= cut

    monkeypatch.setattr("perimdef.strategy._plateau_is_stealthy", audit)
    sol = optimize_engagement(r, p)
    assert sol.candidate.tau == (sat[0] if first_pass is None else cut)
    assert len(calls) <= 1 + math.ceil(math.log2(len(sat)))


def test_plateau_bits_pinned():
    first_passes = []
    for key, want in PLATEAU_HEX.items():
        p = validate_params(*key)
        r = capture_circle_radius(p)
        sol = optimize_engagement(r, p)
        assert sol.theta_max == math.pi
        assert (sol.candidate.tau.hex(), sol.phi.hex()) == want
        first_passes.append(_plateau_is_stealthy(_saturated_grid_times(r, p)[0], p, r))
    assert first_passes == [False, True]


@st.composite
def _valid_params(draw):
    """Valid params out to the edge regimes: nu near 1, small rho_a, and an
    annulus whose binding clause only just holds (factor 1)."""
    nu = draw(st.floats(0.05, 0.99))
    rho_a = draw(st.floats(0.005, 5.0))
    r_t = draw(st.floats(0.1, 30.0))
    first, second = assumption_clauses(r_t, 1.0, rho_a, nu)
    return validate_params(r_t, max(first, second) * draw(st.floats(1.0, 4.0)), rho_a, nu)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_valid_params())
def test_optimizer_dominates_fresh_grid_property(p):
    r = capture_circle_radius(p)
    sol = optimize_engagement(r, p)
    tau_min, tau_max = engagement_domain(p)
    for tau in np.linspace(tau_min, tau_max, 4096).tolist():
        assert sol.theta_max >= theta_max_at(tau, engagement_theta(tau, p), r, p) - 1e-7


def test_optimizer_bundle_consistency(params):
    sol = optimize_engagement(capture_circle_radius(params), params)
    assert sol.r_eng == pytest.approx(sol.candidate.x_d_eng.norm(), abs=1e-12)
    assert sol.phi_eng == pytest.approx(sol.candidate.x_d_eng.bearing(), abs=1e-12)
    assert sol.x_p.norm() == pytest.approx(capture_circle_radius(params), abs=1e-9)
    assert 0.0 < sol.theta_max <= math.pi


def test_capture_circle_solution_is_cached(params):
    assert capture_circle_solution(params) is capture_circle_solution(params)


def test_theta_max_positive_on_random_params(random_valid_params):
    rng = random.Random(17)
    for _ in range(60):
        p = random_valid_params(rng)
        sol = capture_circle_solution(p)
        assert 0.0 < sol.theta_max <= math.pi
        # saturated optima must still pick an engagement behind the intruder
        if sol.theta_max == math.pi:
            assert sol.candidate.theta >= math.pi / 2.0


def test_reachability_triangle_tight_at_theta_max(params):
    r = capture_circle_radius(params)
    sol = capture_circle_solution(params)
    start = Point2.from_polar(r, sol.theta_max)
    assert start.distance_to(sol.candidate.x_d_eng) == pytest.approx(
        sol.candidate.tau, abs=1e-6
    )


def test_defender_path_never_sensed_early(params, random_valid_params):
    rng = random.Random(60)
    cases = [params] + [random_valid_params(rng) for _ in range(40)]
    for p in cases:
        r = capture_circle_radius(p)
        assert sufficiency_holds(r, p)
        sol = capture_circle_solution(p)
        eng = sol.candidate.x_d_eng
        for frac in (0.0, 0.37, 0.8, 1.0):
            start = Point2.from_polar(r, frac * sol.theta_max)
            path_len = start.distance_to(eng)
            assert path_len <= sol.candidate.tau + 1e-9
            t = np.linspace(0.0, sol.candidate.tau, 10_000, endpoint=False)
            travel = np.minimum(t, path_len)
            if path_len > 0.0:
                px = start.x + (eng.x - start.x) * travel / path_len
                py = start.y + (eng.y - start.y) * travel / path_len
            else:
                px = np.full_like(t, start.x)
                py = np.full_like(t, start.y)
            ax = p.tsr_radius - p.nu * t
            dist = np.hypot(px - ax, py)
            assert float(dist.min()) >= p.rho_a - 1e-6


# ---------------------------------------------------------------------------
# evasion endpoint and capture circle


def test_evasion_point_dead_ahead_case(params):
    tau_min, _ = engagement_domain(params)
    cand = engagement_candidate(tau_min, params)
    assert cand.theta == pytest.approx(0.0, abs=1e-7)
    x_p, phi = evasion_point(cand, params)
    assert phi == pytest.approx(0.0, abs=1e-7)
    assert x_p.x == pytest.approx(capture_circle_radius(params), abs=1e-7)
    assert x_p.y == pytest.approx(0.0, abs=1e-6)


def test_evasion_point_properties_random(random_valid_params):
    rng = random.Random(14)
    for _ in range(100):
        p = random_valid_params(rng)
        tau_min, tau_max = engagement_domain(p)
        cand = engagement_candidate(rng.uniform(tau_min, tau_max), p)
        x_p, phi = evasion_point(cand, p)
        assert x_p.norm() == pytest.approx(capture_circle_radius(p), abs=1e-9 * (1 + x_p.norm()))
        center = cand.x_a_eng - p.beta * p.rho_a * Point2.from_polar(1.0, cand.theta)
        u_phi = Point2.from_polar(1.0, phi)
        assert u_phi.dot(center) == pytest.approx(center.norm(), abs=1e-12 * (1 + center.norm()))


def test_capture_circle_radius_values(params):
    assert capture_circle_radius(params) == pytest.approx(85.0 / 9.0, abs=1e-12)
    degenerate = GameParams(
        r_t=5.0, rho_t=10.0, rho_a=0.0, nu=0.8,
        alpha=params.alpha, beta=params.beta, gamma=params.gamma,
    )
    assert capture_circle_radius(degenerate) == 5.0


def test_capture_circle_inside_guarding_threshold(random_valid_params):
    rng = random.Random(77)
    for _ in range(200):
        p = random_valid_params(rng)
        assert capture_circle_radius(p) < p.rho_t / p.nu


def test_sufficiency_boundary(params):
    assert sufficiency_holds(capture_circle_radius(params), params)
    assert sufficiency_holds(params.tsr_radius - params.rho_a, params)
    assert not sufficiency_holds(params.tsr_radius, params)
