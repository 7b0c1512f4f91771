"""Closed-form capture statistics against the exact dynamic-programming oracle,
plus aggregation and sweeps."""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimdef import strategy
from perimdef.analytics import (
    DomainError,
    LengthMismatch,
    aggregate_sessions,
    asymptotic_percentage,
    expected_percentage,
    expected_resets,
    markov_oracle,
    p_star,
    resets_tail_all,
    sweep,
)
from perimdef.engine import SessionRecord, run_session
from perimdef.geometry import AssumptionViolated, validate_params
from perimdef.strategy import capture_circle_solution

P_STAR_BASELINE = 0.6389435320791843  # frozen after oracle cross-checks

P_GRID = [0.05 * k for k in range(1, 20)]


# ---------------------------------------------------------------------------
# reset tails and expectations


def test_resets_tail_vacuous_cases():
    assert resets_tail_all(1, 0.5)[0] == 0.0
    assert resets_tail_all(5, 0.5)[2] == 0.0  # m+1 > n-m-1
    assert resets_tail_all(10, 0.3)[9] == 0.0


def test_resets_tail_deterministic_alternation():
    # p=0 alternates capture/breach: after 5 games exactly 2 breaches
    assert resets_tail_all(5, 0.0)[1] == 1.0
    assert resets_tail_all(5, 0.0)[2] == 0.0
    assert expected_resets(2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert expected_percentage(2, 0.0) == pytest.approx(50.0, abs=1e-12)


def test_expected_resets_edge_horizons():
    for p in (0.0, 0.3, 0.9, 1.0):
        assert expected_resets(1, p) == 0.0
        assert expected_percentage(1, p) == 100.0


@pytest.mark.parametrize("p", [0.0, 0.05, 0.35, 0.6389435320791843, 0.95, 1.0])
def test_tails_match_markov_oracle(p):
    for n in (1, 2, 3, 7, 50, 200, 2000):
        pmf = markov_oracle(n, p)
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
        tails = resets_tail_all(n, p)
        for m in range(n + 1):
            dp_tail = math.fsum(pmf[m + 1 :]) if m + 1 < len(pmf) else 0.0
            assert abs(tails[m] - dp_tail) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.1, 0.6389435320791843, 0.9, 1.0])
def test_expected_resets_matches_markov_mean(p):
    for n in (1, 2, 17, 101, 200, 2000):
        pmf = markov_oracle(n, p)
        dp_mean = float(np.arange(len(pmf)) @ pmf)
        assert expected_resets(n, p) == pytest.approx(dp_mean, abs=1e-10)


def test_expected_resets_domain():
    for fn in (expected_resets, resets_tail_all, markov_oracle):
        with pytest.raises(DomainError):
            fn(0, 0.5)
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                fn(10, p)


@pytest.mark.parametrize("p", [0.0, 1e-6, 0.0017043959164706468, 0.03133023496140541, 0.05, P_STAR_BASELINE, 0.95,
                               1.0 - 2**-53, 1.0])
def test_closed_form_on_an_array_of_horizons_has_the_scalar_bits(p):
    """``simulate`` writes its ``analytic_pct`` column with one call per block
    of prefixes, on a ``range``; each value must be the scalar's, bit for bit,
    for a range and for a list of Python ints.  The horizons are Python ints:
    a numpy integer would send ``q**n`` through numpy's power, which at
    p = 0.0017... (n = 180) and 0.0313... (n = 2) moves the result by an ulp
    on an AVX-512 host."""
    n = np.unique(np.r_[1:5001, np.geomspace(1, 10**6, 3000).round().astype(int)]).tolist()
    assert len(n) == 6151 and n[-1] == 10**6
    for fn in (expected_resets, expected_percentage):
        for horizons in (n, range(1, 5001), range(10**6 - 300, 10**6 + 1)):
            want = [fn(k, p).hex() for k in horizons]
            assert [v.hex() for v in fn(horizons, p)] == want
    with pytest.raises(DomainError):
        expected_resets([1, 0], p)


def test_expected_resets_refuses_a_horizon_past_the_float_range():
    """Such a horizon made the closed form overflow converting it to a float;
    it is refused as the CLI refuses it."""
    for fn in (expected_resets, expected_percentage):
        for n in (10**400, [20, 10**400], range(1, 10**400)):
            with pytest.raises(DomainError, match="positive integers no larger than a float"):
                fn(n, P_STAR_BASELINE)


@pytest.mark.parametrize("fn", [resets_tail_all, markov_oracle])
@pytest.mark.parametrize("n, message", [
    (0, "positive integers no larger than a float"),
    (-1, "positive integers no larger than a float"),
    (2**63, "largest list"),
    (10**400, "positive integers no larger than a float"),
], ids=["0", "-1", "2**63", "10**400"])
def test_distributions_refuse_a_horizon_no_list_can_hold(fn, n, message):
    """The O(n) distributions take the closed form's horizon rule, and refuse
    a horizon whose list no index reaches before building anything: the tails
    raised a bare OverflowError there, and the DP's loop never ended."""
    with pytest.raises(DomainError, match=message):
        fn(n, P_STAR_BASELINE)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6389435320791843, 0.95, 1.0])
def test_expected_percentage_at_huge_horizon_meets_asymptote(p):
    # The closed form costs O(1), so a billion-game horizon is cheap.
    assert abs(expected_percentage(10**9, p) - asymptotic_percentage(p)) <= 1e-6


def test_breach_count_bits_pinned():
    """Every value of the tails and of the DP pmf, pinned by its hex digits,
    over short, medium and long horizons and p from 0 to 1 with its ends."""
    digest = hashlib.sha256()
    for p in (0.0, 1e-6, 0.05, 0.35, P_STAR_BASELINE, 0.95, 1.0 - 2**-53, 1.0):
        for n in (*range(1, 61), 199, 200, 201, 777, 2000):
            for fn in (resets_tail_all, markov_oracle):
                digest.update(" ".join(float(x).hex() for x in fn(n, p)).encode() + b"\n")
    assert digest.hexdigest() == "1ee653d522298311cf14cab4ce93d75f891bfbf102bf48d3d363633c3b87588d"


def test_closed_form_bits_pinned():
    """Every value of the closed forms over a ``range``, pinned by its hex digits,
    over the first 200,000 horizons and the 301 up to a million, for p from 0
    to 1 with its ends."""
    digest = hashlib.sha256()
    for p in (0.0, 1e-6, 0.05, 0.35, P_STAR_BASELINE, 0.95, 1.0 - 2**-53, 1.0):
        for horizons in (range(1, 200_001), range(999_700, 1_000_001)):
            for fn in (expected_resets, expected_percentage):
                digest.update(" ".join(map(float.hex, fn(horizons, p))).encode() + b"\n")
    assert digest.hexdigest() == "99ce6e7379b8c1cd8202fbf89a302f1154a0f10bb507581387a58463b4c5e230"


def test_markov_oracle_small_horizons():
    assert markov_oracle(1, 0.37) == [1.0]
    pmf = markov_oracle(2, 0.37)
    assert pmf[0] == pytest.approx(0.37, abs=1e-15)
    assert pmf[1] == pytest.approx(0.63, abs=1e-15)


def test_expected_percentage_monotone_and_convergent():
    # Strict horizon monotonicity holds for p >= 1/2; below that the
    # guaranteed recapture after each breach makes small horizons oscillate
    # by parity, so each parity class is checked separately.
    for p in (0.5, 0.6389435320791843, 0.9):
        values = [expected_percentage(n, p) for n in range(1, 120)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
    for p in (0.05, 0.2, 0.35):
        values = [expected_percentage(n, p) for n in range(1, 120)]
        for parity in (0, 1):
            sub = values[parity::2]
            for a, b in zip(sub, sub[1:]):
                assert b <= a + 1e-12
    for p in P_GRID:
        if p <= 0.9:
            assert abs(expected_percentage(2000, p) - asymptotic_percentage(p)) <= 0.1


def test_bounds():
    for p in P_GRID + [0.0, 1.0]:
        assert 50.0 <= asymptotic_percentage(p) <= 100.0
        for n in (1, 13, 64):
            assert 0.0 <= expected_resets(n, p) <= n / 2 + 1


def test_asymptotic_values_and_identity(params):
    assert asymptotic_percentage(1.0) == 100.0
    assert asymptotic_percentage(0.0) == 50.0
    theta_max = capture_circle_solution(params).theta_max
    assert asymptotic_percentage(p_star(params)) == pytest.approx(
        100.0 * math.pi / (2.0 * math.pi - theta_max), rel=1e-12
    )


def test_p_star_baseline_regression(params):
    p = p_star(params)
    assert p == pytest.approx(P_STAR_BASELINE, abs=1e-9)
    assert expected_percentage(200, p) == pytest.approx(
        100.0 * (200 - expected_resets(200, p)) / 200, abs=1e-12
    )
    assert asymptotic_percentage(p) == pytest.approx(
        asymptotic_percentage(P_STAR_BASELINE), abs=1e-6
    )


@pytest.mark.parametrize("k", [20, 30, 40, 60])
def test_p_star_at_large_units_matches_unscaled(params, monkeypatch, k):
    """Lengths times 2^k put the engagement times past 2^23, where their ulp
    exceeds ``TAU_TOL``; the solve still ends, with the unscaled p*.  A solve
    that evaluates its objective a thousand times has stalled."""
    surface, calls = strategy._surface, []

    def counted(p):
        *closures, f = surface(p)

        def evaluate(tau):
            calls.append(None)
            if len(calls) > 1000:
                raise AssertionError("the engagement solve stalled")
            return f(tau)

        return (*closures, evaluate)

    monkeypatch.setattr(strategy, "_surface", counted)
    s = 2.0 ** k
    scaled = validate_params(s * params.r_t, s * params.rho_t, s * params.rho_a, params.nu)
    assert p_star(scaled) == pytest.approx(p_star(params), abs=1e-14)


def test_law_of_large_numbers(params):
    p = p_star(params)
    expected = expected_percentage(200, p)
    pcts = []
    for seed in range(1000):
        rec = run_session(params, 200, seed=seed + 1)
        pcts.append(100.0 * rec.n_capture / 200.0)
    mean = float(np.mean(pcts))
    se = float(np.std(pcts, ddof=1)) / math.sqrt(len(pcts))
    assert abs(mean - expected) < 3.0 * se


@pytest.mark.parametrize("raw", [(5.0, 10.0, 1.0, 0.8), (5.0, 14.0, 1.0, 0.9)], ids=["nu0.8", "nu0.9"])
def test_session_breach_counts_follow_markov_pmf(raw):
    # The capture mask is a two-state chain whatever phi and the mirror side
    # are, so a session's breach count has exactly markov_oracle's pmf.  The
    # bound is the asymptotic 1% Kolmogorov-Smirnov critical value.
    params = validate_params(*raw)
    n_games, n_sessions = 200, 2000
    cdf = np.cumsum(markov_oracle(n_games, p_star(params)))
    breaches = [run_session(params, n_games, seed=s).n_breach for s in range(1, n_sessions + 1)]
    ecdf = np.cumsum(np.bincount(breaches, minlength=cdf.size)) / n_sessions
    assert np.max(np.abs(ecdf - cdf)) <= 1.63 / math.sqrt(n_sessions)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_sessions_prefix_one_is_always_100(params):
    records = [run_session(params, 50, seed=s) for s in range(5)]
    stats = aggregate_sessions(records)
    assert stats.mean_pct[0] == 100.0
    assert stats.ci_lo[0] == stats.ci_hi[0] == 100.0
    assert stats.n[0] == 1 and stats.n[-1] == 50


def test_aggregate_sessions_identical_sessions_zero_width(params):
    records = [run_session(params, 30, seed=4), run_session(params, 30, seed=4)]
    stats = aggregate_sessions(records)
    assert np.allclose(stats.ci_lo, stats.mean_pct)
    assert np.allclose(stats.ci_hi, stats.mean_pct)


def _numpy_prefix_stats(masks: list[list[bool]]) -> list[list[float]]:
    """pct, mean_pct, ci_lo and ci_hi as numpy computes them, the reference
    for ``aggregate_sessions``: a cumulative sum along each session, then a
    mean and a standard deviation down the columns."""
    captures = np.array(masks, dtype=float)
    trials, length = captures.shape
    pct = 100.0 * np.cumsum(captures, axis=1) / np.arange(1, length + 1, dtype=float)
    mean = pct.mean(axis=0)
    half = 1.96 * pct.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(length)
    return [row.tolist() for row in pct] + [mean.tolist(), (mean - half).tolist(), (mean + half).tolist()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 300), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_aggregate_sessions_has_numpys_bits_property(trials, length, p_capture, seed):
    """Random capture masks of 1-60 sessions x 1-300 games aggregate to the
    numpy reference's bits, the per-session percentages and the band alike.

    Each mask opens with a capture, as every session does: its first arrival
    meets the defender at the center.  On a single game numpy reduces the
    lone column pairwise rather than row by row, which moves the band by an
    ulp from 9 sessions on when that column mixes captures and breaches;
    with the capture it is all 100.0, and every order sums it alike."""
    rng = random.Random(seed)
    masks = [[True] + [rng.random() < p_capture for _ in range(length - 1)] for _ in range(trials)]
    stats = aggregate_sessions([SessionRecord(None, t, tuple(m), sum(m), length - sum(m))
                                for t, m in enumerate(masks)])
    assert stats.n == range(1, length + 1)
    got = [*stats.pct, stats.mean_pct, stats.ci_lo, stats.ci_hi]
    assert [[v.hex() for v in col] for col in got] == [[v.hex() for v in col] for col in _numpy_prefix_stats(masks)]


def test_aggregate_sessions_length_mismatch(params):
    with pytest.raises(LengthMismatch):
        aggregate_sessions([run_session(params, 10, 1), run_session(params, 11, 1)])
    with pytest.raises(ValueError):
        aggregate_sessions([])


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_order_and_feasibility():
    rows = sweep(
        ("rho_a", [0.5, 3.0]),
        ("rho_t", [4.0, 12.0]),
        {"r_t": 5.0, "nu": 0.75},
        horizons=[20],
    )
    assert [(r.rho_a, r.rho_t) for r in rows] == [
        (0.5, 4.0), (0.5, 12.0), (3.0, 4.0), (3.0, 12.0)
    ]
    # (0.5, 4) fails the fallback clause; rho_a=3 needs rho_t >= 13.29
    assert [r.feasible for r in rows] == [False, True, False, False]
    for row in rows:
        if row.feasible:
            assert 0.0 < row.p_star <= 1.0
            pct = dict(row.percentages)
            assert pct[20.0] >= pct[math.inf] - 1e-9
        else:
            assert row.theta_max is None and row.percentages is None


def test_sweep_keeps_only_the_latest_solution():
    """``capture_circle_solution`` caches one params: over the paper's 15x25
    grid each feasible point solves once, its second lookup hits, and only the
    last point's solution is kept."""
    capture_circle_solution.cache_clear()
    rows = sweep(("rho_a", np.linspace(0.2, 3.0, 15)), ("rho_t", np.linspace(4.0, 16.0, 25)),
                 {"r_t": 5.0, "nu": 0.75}, horizons=[20, 100])
    info = capture_circle_solution.cache_info()
    feasible = sum(row.feasible for row in rows)
    assert feasible > 200
    assert info.misses == info.hits == feasible
    assert info.currsize == 1


def test_sweep_rejects_bad_axes():
    with pytest.raises(ValueError):
        sweep(("rho_a", [1.0]), ("rho_a", [2.0]), {"r_t": 5.0, "nu": 0.8}, [20])
    with pytest.raises(ValueError):
        sweep(("rho_a", [1.0]), ("rho_t", [8.0]), {"r_t": 5.0}, [20])


@pytest.mark.parametrize("fixed, horizons, error, match", [
    ({"r_t": 5.0, "nu": 1.5}, [20], AssumptionViolated, r"nu=1\.5 must lie"),
    ({"r_t": 1e300, "nu": 0.75}, [20], ValueError, r"r_t=1e\+300 is outside"),
    ({"r_t": 5.0, "nu": 0.75}, [20, 20], ValueError, "distinct"),
    ({"r_t": 5.0, "nu": 0.75}, [20, 10**400], DomainError, "no larger than a float"),
], ids=["speed", "length", "repeated", "overflow"])
def test_sweep_refuses_what_the_cli_refuses_before_any_solve(monkeypatch, fixed, horizons, error, match):
    """A fixed value outside its domain, and a horizon past the float range or
    repeated, raise before the first grid point is solved, instead of making
    every row infeasible or solving the grid first."""
    def solve(*args):
        raise AssertionError("a grid point was solved before the inputs were checked")

    capture_circle_solution.cache_clear()
    monkeypatch.setattr(strategy, "optimize_engagement", solve)
    with pytest.raises(error, match=match) as info:
        sweep(("rho_a", [0.5, 3.0]), ("rho_t", [4.0, 12.0]), fixed, horizons)
    if error is AssumptionViolated:
        assert info.value.which == "speed"


def test_finite_horizon_close_to_asymptote_across_grid():
    rows = sweep(
        ("rho_a", np.linspace(0.2, 3.0, 8)),
        ("rho_t", np.linspace(4.0, 16.0, 13)),
        {"r_t": 5.0, "nu": 0.75},
        horizons=[20],
    )
    feasible = [r for r in rows if r.feasible]
    assert len(feasible) > 40
    for row in feasible:
        pct = dict(row.percentages)
        assert abs(pct[20.0] - pct[math.inf]) <= 5.0

