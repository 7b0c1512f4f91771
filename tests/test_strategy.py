"""Guarded arc, engagement surface, reachability bound, and evasion endpoint.

The closed forms here have no in-repo derivation, so each is pinned against
a brute-force oracle: angular bisection over dominance-circle classification
for the guarded arc, and exhaustive grid search plus ternary refinement for
the engagement optimizer.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (
    PLATEAU_HEX, arc_bounds_theta_max, edge_params, fan_is_stealthy, make_valid_params, scan_decisions,
    scan_objective, search_decisions, valid_params,
)
from perimdef import analytics
from perimdef.cli import main
from perimdef.geometry import (
    CircleClass, GameParams, apollonius, classify, validate_params,
)
from perimdef.strategy import (
    _plateau_is_stealthy,
    InfeasibleTau,
    OutOfRange,
    capture_circle_radius,
    capture_circle_solution,
    engagement_candidate,
    engagement_domain,
    evasion_point,
    guarded_arc,
    optimize_engagement,
    theta_max_at,
)

# Regression anchors for the baseline parameters, frozen after cross-checking
# against the brute-force oracles below.
GUARDED_ARC_AT_CAPTURE_RADIUS = 1.8584730829635667
THETA_MAX_STAR = 2.0073003064386796
# float.hex of (tau, theta_max, phi) of the baseline optimum, for bit-level regressions.
OPTIMUM_HEX = ("0x1.7d164377f9e7cp+3", "0x1.00ef3768b3d40p+1", "-0x1.9c4f93b3f31c4p-5")
# sha256 over float.hex of (theta_max, refined_tau) of 2,000 solves at the
# capture radius: 1,000 make_valid_params and 1,000 edge_params draws.
PINNED_CAPTURE_SOLVES_SHA256 = "e4ab743ccc96080dd786fea21545c5ae8e87ad8a56fa7354f062d6457155a316"


# ---------------------------------------------------------------------------
# guarded arc


def _guarded_arc_oracle(r: float, params: GameParams, iters: int = 50) -> float:
    """Largest safe separation by bisection on the dominance-circle class.

    Capture is possible exactly when the intruder's dominance circle does not
    reach the target; this searches arrival angles directly instead of using
    the closed form.
    """
    x_d = complex(r, 0.0)

    def breachable(sep: float) -> bool:
        x_a = cmath.rect(params.tsr_radius, sep)
        cls = classify(apollonius(x_a, x_d, params), params)
        return cls in (CircleClass.BREACH_POSSIBLE, CircleClass.BREACH_AND_EXIT)

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


def test_guarded_arc_an_ulp_above_the_threshold_is_pi():
    """Here f1 rounds to -1.7e-13 one ulp above ``rho_t / nu - r_t``, and the
    arc raised ``math domain error`` taking its square root.  In exact
    arithmetic f1 is -4.1e-14 there: the rounded threshold lies below the
    true one, so the arc is pi."""
    p = validate_params(17.66866012369243, 14.632800871843218, 1.5203257121099234, 0.6800872324292268)
    r = 3.847404542858975
    assert r == math.nextafter(p.rho_t / p.nu - p.r_t, math.inf)
    assert guarded_arc(r, p) == math.pi


def test_guarded_arc_regression_at_capture_radius(params):
    value = guarded_arc(capture_circle_radius(params), params)
    assert 0.0 < value < math.pi
    assert value == pytest.approx(GUARDED_ARC_AT_CAPTURE_RADIUS, abs=1e-12)


@pytest.mark.parametrize("r", [9.444444444444445, 8.0, 10.0, 12.5, 15.0])
def test_guarded_arc_matches_apollonius_oracle(params, r):
    assert guarded_arc(r, params) == pytest.approx(
        _guarded_arc_oracle(r, params), abs=1e-12
    )


def test_guarded_arc_out_of_range(params):
    with pytest.raises(OutOfRange):
        guarded_arc(params.tsr_radius + 1e-6, params)
    with pytest.raises(OutOfRange):
        guarded_arc(-0.1, params)


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
    assert engagement_candidate(tau_min, params).theta == pytest.approx(0.0, abs=1e-7)
    assert engagement_candidate(tau_max, params).theta == pytest.approx(math.pi, abs=1e-7)


def test_engagement_theta_feasible_everywhere_on_domain(params):
    tau_min, tau_max = engagement_domain(params)
    inner = params.r_t + params.gamma * params.rho_a
    for tau in np.linspace(tau_min, tau_max, 1000):
        cand = engagement_candidate(float(tau), params)
        assert 0.0 <= cand.theta <= math.pi
        center = cand.x_a_eng - cmath.rect(params.beta * params.rho_a, cand.theta)
        assert abs(abs(center) - inner) <= 1e-9 * (1.0 + inner)


def test_engagement_theta_outside_domain_raises(params):
    tau_min, tau_max = engagement_domain(params)
    with pytest.raises(InfeasibleTau):
        engagement_candidate(tau_min - 0.1, params)
    with pytest.raises(InfeasibleTau):
        engagement_candidate(tau_max + 0.1, params)


def test_engagement_surface_membership_random_params(random_valid_params):
    rng = random.Random(31)
    for _ in range(50):
        p = random_valid_params(rng)
        tau_min, tau_max = engagement_domain(p)
        inner = p.r_t + p.gamma * p.rho_a
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            cand = engagement_candidate(tau_min + frac * (tau_max - tau_min), p)
            center = cand.x_a_eng - cmath.rect(p.beta * p.rho_a, cand.theta)
            assert abs(abs(center) - inner) <= 1e-9 * (1.0 + inner)
            assert abs(cand.x_d_eng - cand.x_a_eng) == pytest.approx(p.rho_a, abs=1e-9)


# ---------------------------------------------------------------------------
# reachability bound


def _brute_force_solution(params: GameParams, n: int = 2000) -> float:
    """Independent maximizer: dense grid plus ternary refinement."""
    tau_min, tau_max = engagement_domain(params)

    def f(tau: float) -> float:
        return theta_max_at(tau, params)

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
    sol = optimize_engagement(params)
    assert sol.theta_max == pytest.approx(THETA_MAX_STAR, abs=1e-9)
    assert sol.theta_max == pytest.approx(_brute_force_solution(params), abs=1e-6)


def test_optimizer_dominates_fresh_audit_grid(params):
    sol = optimize_engagement(params)
    tau_min, tau_max = engagement_domain(params)
    for tau in np.linspace(tau_min, tau_max, 5000):
        value = theta_max_at(float(tau), params)
        assert sol.theta_max >= value - 1e-7


def test_optimizer_bits_pinned(params):
    sol = optimize_engagement(params)
    assert (sol.candidate.tau.hex(), sol.theta_max.hex(), sol.phi.hex()) == OPTIMUM_HEX


def test_solve_bits_pinned():
    rng = random.Random(20)
    draws = [make_valid_params(rng) for _ in range(1000)] + [edge_params(rng, i) for i in range(1000)]
    digest, saturated = hashlib.sha256(), 0
    for p in draws:
        sol = optimize_engagement(p)
        tau = sol.refined_tau
        saturated += tau is None
        digest.update(f"{sol.theta_max.hex()} {tau if tau is None else tau.hex()}\n".encode())
    assert digest.hexdigest() == PINNED_CAPTURE_SOLVES_SHA256
    assert 0 < saturated < len(draws)


def test_objective_grid_decisions_match_scalar_oracle(params, random_valid_params):
    """Bisection reads from the grid what an exhaustive scalar scan reads:
    the same times, the first maximum, and the saturated plateau."""
    rng = random.Random(0)
    cases = [params] + [random_valid_params(rng) for _ in range(200)]
    saturated_cases = 0
    for p in cases:
        scan = scan_decisions(p)
        assert search_decisions(p) == scan
        saturated_cases += bool(scan[2])
    # both branches of the optimizer are exercised
    assert 0 < saturated_cases < len(cases)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_params())
def test_grid_search_matches_scalar_scan_property(p):
    """The same over the edge regimes."""
    assert search_decisions(p) == scan_decisions(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(valid_params())
def test_objective_positive_over_the_window_property(p):
    """The first annulus clause makes the objective positive at every grid
    time, and the best-aligned start from the capture circle arrives with
    time to spare, ``tau - |r_eng - r_cc| > 0`` (see ``_grid_peak``)."""
    _, values, leads = scan_objective(p)
    assert min(values) > 0.0 and min(leads) > 0.0


def _saturated_grid_times(p: GameParams) -> list[float]:
    """The optimizer's grid times at which the scalar objective saturates at pi."""
    taus, _, saturated = scan_decisions(p)
    return [taus[i] for i in saturated]


def test_plateau_choice_matches_linear_scan(random_valid_params):
    """On a saturated optimum the chosen time is the first saturated grid time
    whose approach audit passes, or the first saturated time if none does."""
    cases = [validate_params(*key) for key in PLATEAU_HEX]
    rng = random.Random(0)
    cases += [random_valid_params(rng) for _ in range(20)]
    n_plateau = 0
    for p in cases:
        sol = optimize_engagement(p)
        if sol.theta_max != math.pi:
            continue
        n_plateau += 1
        sat = _saturated_grid_times(p)
        want = next((tau for tau in sat if _plateau_is_stealthy(tau, p)), sat[0])
        assert sol.candidate.tau == want
    assert n_plateau >= 10


@pytest.mark.parametrize("first_pass", [None, 0, 1, -1])
def test_plateau_search_with_stub_audit(monkeypatch, first_pass):
    """With an audit that passes from one saturated time on, the search picks
    that time, or the first saturated time when no time passes, in at most
    1 + ceil(log2(len)) audits."""
    p = validate_params(5.0, 10.0, 0.5, 0.5)
    sat = _saturated_grid_times(p)
    cut = math.inf if first_pass is None else sat[first_pass]
    calls = []

    def audit(tau, params):
        calls.append(tau)
        return tau >= cut

    monkeypatch.setattr("perimdef.strategy._plateau_is_stealthy", audit)
    sol = optimize_engagement(p)
    assert sol.candidate.tau == (sat[0] if first_pass is None else cut)
    assert len(calls) <= 1 + math.ceil(math.log2(len(sat)))


def test_plateau_bits_pinned():
    first_passes = []
    for key, want in PLATEAU_HEX.items():
        p = validate_params(*key)
        sol = optimize_engagement(p)
        assert sol.theta_max == math.pi
        assert (sol.candidate.tau.hex(), sol.phi.hex()) == want
        first_passes.append(_plateau_is_stealthy(_saturated_grid_times(p)[0], p))
    assert first_passes == [False, True]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_params())
# an audit started at bearing 0 (+r_cc) instead of pi passes saturated grid
# times 32 and 37 here, where the fan fails; 37 is the one before the chosen time
@example(validate_params(2.6721028801753466, 11.35521153291566, 4.746026101461576, 0.5130264194623684))
# the chosen time, grid time 512, holds at a bearing 4.4e-5 past pi/2: the fan's
# 1e-6 margin passes it, where a HOLD_MARGIN of 1e-4 would not
@example(validate_params(20.806507569532062, 15.055641207455842, 0.31198603668441927, 0.3335585269566003))
def test_plateau_audit_matches_bearing_fan_property(p):
    """The one-start replay audit gives the fan's verdict on every 16th
    saturated grid time, and on the chosen (first passing) time and the one
    before it (the last failing)."""
    sol = optimize_engagement(p)
    if sol.theta_max != math.pi:
        return
    sat = _saturated_grid_times(p)
    k = sat.index(sol.candidate.tau)
    for i in {*range(0, len(sat), 16), k, max(k - 1, 0)}:
        assert _plateau_is_stealthy(sat[i], p) == fan_is_stealthy(sat[i], p), sat[i]


def _no_audit(*args, **kwargs):
    raise AssertionError("the plateau audit ran")


def test_theta_max_outputs_never_audit_the_plateau(monkeypatch, tmp_path):
    """``sweep`` and ``analytic`` read only ``theta_max``, so on a plateau they
    write the same rows without choosing the engagement time."""
    axes = (("rho_a", [0.5, 1.0, 1.5]), ("rho_t", [8.0, 10.0, 12.0, 14.0]), {"r_t": 5.0, "nu": 0.5})
    argv = ["analytic", "--r-t", "5", "--rho-t", "10", "--rho-a", "0.5", "--nu", "0.5",
            "--n", "1,20,200"]

    def run(out):
        capture_circle_solution.cache_clear()
        assert main([*argv, "--out", str(out)]) == 0
        return analytics.sweep(*axes, horizons=(20,)), out.read_bytes()

    want = run(tmp_path / "want.csv")
    assert sum(row.theta_max == math.pi for row in want[0]) >= 2
    monkeypatch.setattr("perimdef.strategy._plateau_is_stealthy", _no_audit)
    assert run(tmp_path / "got.csv") == want
    capture_circle_solution.cache_clear()


@pytest.mark.parametrize("first", ["candidate", "phi"])
def test_plateau_audit_runs_on_first_use_only(monkeypatch, first):
    p = validate_params(5.0, 10.0, 0.5, 0.5)
    calls = []

    def audit(tau, params):
        calls.append(tau)
        return _plateau_is_stealthy(tau, params)

    monkeypatch.setattr("perimdef.strategy._plateau_is_stealthy", audit)
    sol = optimize_engagement(p)
    assert sol.theta_max == math.pi
    assert calls == []
    getattr(sol, first)
    n_audits = len(calls)
    assert n_audits > 0
    for name in ("candidate", "x_p", "phi"):
        getattr(sol, name)
    assert len(calls) == n_audits


def test_bundle_bits_independent_of_read_order(params):
    def bits(sol):
        return sol.candidate.tau.hex(), sol.phi.hex(), sol.x_p.real.hex(), sol.x_p.imag.hex()

    for p in [params, *(validate_params(*key) for key in PLATEAU_HEX)]:
        phi_first, candidate_first = optimize_engagement(p), optimize_engagement(p)
        phi_first.phi
        candidate_first.candidate
        assert bits(phi_first) == bits(candidate_first)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_params())
def test_optimizer_dominates_fresh_grid_property(p):
    sol = optimize_engagement(p)
    tau_min, tau_max = engagement_domain(p)
    for tau in np.linspace(tau_min, tau_max, 4096).tolist():
        assert sol.theta_max >= theta_max_at(tau, p) - 1e-7


@settings(max_examples=200, deadline=None, derandomize=True)
@given(valid_params())
def test_guarded_arc_bounds_theta_max_property(p):
    """The full-information arc bounds the equilibrium from below: ``theta_max``
    is at least ``guarded_arc`` at the capture radius, and is pi exactly when
    that arc is."""
    assert arc_bounds_theta_max(p)


def test_optimizer_bundle_consistency(params):
    sol = optimize_engagement(params)
    assert abs(sol.x_p) == pytest.approx(capture_circle_radius(params), abs=1e-9)
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
    start = cmath.rect(r, sol.theta_max)
    assert abs(start - sol.candidate.x_d_eng) == pytest.approx(
        sol.candidate.tau, abs=1e-6
    )


def test_defender_path_never_sensed_early(params, random_valid_params):
    rng = random.Random(60)
    cases = [params] + [random_valid_params(rng) for _ in range(40)]
    for p in cases:
        r = capture_circle_radius(p)
        assert r <= p.tsr_radius - p.rho_a
        sol = capture_circle_solution(p)
        eng = sol.candidate.x_d_eng
        for frac in (0.0, 0.37, 0.8, 1.0):
            start = cmath.rect(r, frac * sol.theta_max)
            path_len = abs(eng - start)
            assert path_len <= sol.candidate.tau + 1e-9
            t = np.linspace(0.0, sol.candidate.tau, 10_000, endpoint=False)
            travel = np.minimum(t, path_len)
            if path_len > 0.0:
                px = start.real + (eng.real - start.real) * travel / path_len
                py = start.imag + (eng.imag - start.imag) * travel / path_len
            else:
                px = np.full_like(t, start.real)
                py = np.full_like(t, start.imag)
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
    assert x_p.real == pytest.approx(capture_circle_radius(params), abs=1e-7)
    assert x_p.imag == pytest.approx(0.0, abs=1e-6)


def test_evasion_point_properties_random(random_valid_params):
    rng = random.Random(14)
    for _ in range(100):
        p = random_valid_params(rng)
        tau_min, tau_max = engagement_domain(p)
        cand = engagement_candidate(rng.uniform(tau_min, tau_max), p)
        x_p, phi = evasion_point(cand, p)
        assert abs(x_p) == pytest.approx(capture_circle_radius(p), abs=1e-9 * (1 + abs(x_p)))
        center = cand.x_a_eng - cmath.rect(p.beta * p.rho_a, cand.theta)
        u_phi = cmath.rect(1.0, phi)
        assert (u_phi.conjugate() * center).real == pytest.approx(abs(center), abs=1e-12 * (1 + abs(center)))


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
