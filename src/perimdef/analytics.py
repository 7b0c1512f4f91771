"""Capture statistics: closed forms, an exact Markov oracle, and sweeps.

A session alternates runs of captures (the defender hopping along the
capture circle) broken by breaches that send it back to the center.  Run
lengths are geometric in the per-game capture probability ``p*``, which
makes the breach count over a finite horizon negative-binomial
(``resets_tail_all`` gives its tail distribution by a binomial recurrence).
The expected breach count, and with it the expected capture percentage, has
an O(1) closed form in ``expected_resets``.  The two-state dynamic program
``markov_oracle`` recomputes the distribution by brute force so the tails
can be checked exactly.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat
from operator import add, mul, sub, truediv
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .geometry import GameParams, _check_length, _check_speed, validate_params
from .strategy import capture_circle_solution

if TYPE_CHECKING:
    from .engine import SessionRecord

PARAM_NAMES = ("r_t", "rho_t", "rho_a", "nu")


class DomainError(ValueError):
    """Argument outside the distribution's domain."""


class LengthMismatch(ValueError):
    """Aggregated sessions must share one horizon."""


def _check_probability(p_star: float) -> None:
    if not (0.0 <= p_star <= 1.0):
        raise DomainError(f"p_star must lie in [0, 1], got {p_star!r}")


def _check_horizons(horizons: Sequence[float]) -> None:
    if not horizons:
        return
    # A range lies between its ends, which min and max would reach by walking it.
    ends = (horizons[0], horizons[-1]) if isinstance(horizons, range) else horizons
    if not (1 <= min(ends) and max(ends) <= sys.float_info.max):
        raise DomainError(f"horizons must be positive integers no larger than a float, got {horizons!r}")


def _check_list_horizon(n: int) -> None:
    """The horizon rule for the O(n) distributions, which also refuse an ``n``
    whose list of n + 1 entries no index reaches, before building anything."""
    _check_horizons([n])
    if n > sys.maxsize - 1:
        raise DomainError(f"horizon {n!r} is past the largest list, of {sys.maxsize} entries")


def p_star(params: GameParams) -> float:
    """Per-game capture probability for a defender on the capture circle."""
    return capture_circle_solution(params).theta_max / math.pi


def resets_tail_all(n: int, p_star: float) -> list[float]:
    """P(breach count after ``n`` games exceeds m), as a list over m = 0..n.

    Every breach is a game lost from the capture circle and is followed by a
    game from the center, which is a capture.  So the (m+1)-th breach falls
    by game ``n`` exactly when at least m+1 of the first ``j = n - m - 1``
    games played from the circle are lost: the tail is
    P(Bin(j, 1 - p_star) >= n - j).  One survival row of that binomial is
    rolled forward in ``j`` by Pascal's rule, so memory stays O(n); each
    step updates only the entries that can be nonzero and are still read.
    ``markov_oracle`` checks the result.
    """
    _check_list_horizon(n)
    _check_probability(p_star)
    q = 1.0 - p_star
    tails = [0.0] * (n + 1)
    surv = [1.0] + [0.0] * n  # surv[k] = P(Bin(j, 1 - p_star) >= k)
    for j in range(n):
        tails[n - 1 - j] = surv[n - j]
        m = min(j + 1, n - 1 - j)
        surv[1 : m + 1] = [p_star * a + q * b for a, b in zip(surv[1 : m + 1], surv)]
    return tails


def expected_resets(n: int | Sequence[int], p_star: float) -> float | list[float]:
    """E[breach count after ``n`` games], in closed form.

    The chain starts at the center, so before game k the defender is on the
    capture circle with probability ``(1 - q^(k-1)) / (2 - p)``, where
    ``q = -(1 - p)``; each game played from the circle is lost with
    probability ``1 - p``.  Summing over k = 1..n gives the expression below.

    From the first horizon where ``|q|^k < 2^-60`` on, ``1 - q^k`` rounds
    to exactly 1.0, so ``q^k`` is formed only below it: at every horizon
    when p = 0, where ``|q| = 1``, and at none when p = 1.

    ``n`` may also be a sequence of horizons, such as a ``range``; the
    result is then a list with each horizon's scalar value, bit for bit.
    A horizon below 1 or past the largest float raises ``DomainError``.
    """
    horizons = [n] if isinstance(n, (int, float)) else n
    _check_horizons(horizons)
    _check_probability(p_star)
    q = -(1.0 - p_star)
    lost, ratio, rate = 1.0 - p_star, 1.0 - q, 2.0 - p_star
    cut = math.inf if lost == 1.0 else 0.0 if lost == 0.0 else -60.0 / math.log2(lost)
    limit = 1.0 / ratio
    resets = [lost * (k - (1.0 - q**k) / ratio) / rate if k < cut else lost * (k - limit) / rate
              for k in horizons]
    return resets if horizons is n else resets[0]


def expected_percentage(n: int | Sequence[int], p_star: float) -> float | list[float]:
    """Expected percentage of captures over the first ``n`` games, for an
    int or, elementwise, a sequence of horizons."""
    if isinstance(n, (int, float)):
        return 100.0 * (n - expected_resets(n, p_star)) / n
    return [100.0 * (k - r) / k for k, r in zip(n, expected_resets(n, p_star))]


def asymptotic_percentage(p_star: float) -> float:
    """Long-run capture percentage for an unbounded arrival stream."""
    _check_probability(p_star)
    return 100.0 / (2.0 - p_star)


def markov_oracle(n: int, p_star: float) -> list[float]:
    """Exact pmf of the breach count after ``n`` games, by dynamic programming,
    as a list over k = 0..n // 2.

    State is (defender position, breaches so far) with position in
    {center, circle}; the chain starts at the center.  Independent of the
    closed-form route, so it can arbitrate it.
    """
    _check_list_horizon(n)
    _check_probability(p_star)
    q = 1.0 - p_star
    # P(circle, k breaches) over k after t games, for the k that can be
    # nonzero (k <= (t - 1) // 2), from t = 1: the first game, from the
    # center, is a capture.  ``before`` is the column a game earlier.  A
    # defender reaches the center with k breaches by losing from the circle
    # with k - 1, so P(center, k) is q times ``before`` shifted by one.
    circle, before = [1.0], []
    for _ in range(1, n):
        circle, before = [p_star * a + q * b for a, b in zip([*circle, 0.0], [0.0, *before])], circle
    return [a + q * b for a, b in zip([*circle, 0.0], [0.0, *before])]


class PrefixStats(NamedTuple):
    """Mean capture percentage per prefix across sessions, with 95% CI.

    ``n`` is the prefix lengths ``range(1, length + 1)``; the other fields
    are lists of floats indexed by prefix, and ``pct[t][i]`` is session
    ``t``'s capture percentage over its first ``i + 1`` games.
    """

    n: range
    mean_pct: list[float]
    ci_lo: list[float]
    ci_hi: list[float]
    pct: list[list[float]]


def _column_sums(rows: Iterable[list[float]]) -> list[float]:
    """Column sums of ``rows``, added one row at a time in order."""
    rows = iter(rows)
    total = next(rows)
    for row in rows:
        total = list(map(add, total, row))
    return total


def aggregate_sessions(records: Sequence[SessionRecord]) -> PrefixStats:
    """Per-prefix mean and normal-approximation confidence band.

    The column sums run over the sessions in order, which is how numpy
    reduces a ``trials x n`` array down its columns, so the band has the
    bits of ``pct.mean(axis=0)`` and ``pct.std(axis=0, ddof=1)``.  (numpy
    sums a lone column pairwise instead; every session's first game is a
    capture, so that column is all 100.0 and any order gives its bits.)
    """
    if not records:
        raise ValueError("no sessions to aggregate")
    length = len(records[0].outcomes)
    if any(len(r.outcomes) != length for r in records):
        raise LengthMismatch("sessions have differing lengths")
    prefix_n = range(1, length + 1)
    pct = [list(map(truediv, map(mul, repeat(100.0), accumulate(r.outcomes)), prefix_n)) for r in records]
    trials = len(pct)
    if trials == 1:
        # x / 1 == x and x -/+ 0.0 == x: the band is the session itself.
        return PrefixStats(n=prefix_n, mean_pct=pct[0], ci_lo=pct[0], ci_hi=pct[0], pct=pct)
    mean = [s / trials for s in _column_sums(pct)]
    devs = (list(map(sub, row, mean)) for row in pct)
    squares = _column_sums(list(map(mul, d, d)) for d in devs)
    root_t = math.sqrt(trials)
    half = [1.96 * math.sqrt(s / (trials - 1)) / root_t for s in squares]
    return PrefixStats(n=prefix_n, mean_pct=mean, ci_lo=list(map(sub, mean, half)),
                       ci_hi=list(map(add, mean, half)), pct=pct)


class SweepRow(NamedTuple):
    """One grid point of a parameter sweep.

    ``percentages`` pairs each requested horizon (``math.inf`` for the
    asymptote) with its expected capture percentage; infeasible points carry
    no statistics at all.
    """

    r_t: float
    rho_t: float
    rho_a: float
    nu: float
    feasible: bool
    theta_max: Optional[float]
    p_star: Optional[float]
    percentages: Optional[tuple[tuple[float, float], ...]]


def sweep(
    outer: tuple[str, Sequence[float]],
    inner: tuple[str, Sequence[float]],
    fixed: Mapping[str, float],
    horizons: Sequence[int] = (20,),
) -> list[SweepRow]:
    """Evaluate capture statistics over a two-parameter grid.

    Rows come out in row-major order (outer axis slowest).  Grid points
    violating the parametric assumptions are flagged infeasible and carry no
    statistics; that is data, not an error.  A fixed value outside its domain
    (as ``validate_params`` would refuse it) and horizons below 1, past the
    largest float or repeated are errors, raised before any solve.
    """
    names = {outer[0], inner[0], *fixed}
    if names != set(PARAM_NAMES) or len(fixed) != 2 or outer[0] == inner[0]:
        raise ValueError(
            f"sweep axes plus fixed values must cover {PARAM_NAMES} exactly once"
        )
    for name, value in fixed.items():
        if name == "nu":
            _check_speed(value)
        else:
            _check_length(name, value)
    _check_horizons(horizons)
    if len(set(horizons)) != len(horizons):
        raise ValueError(f"sweep horizons must be distinct, got {horizons!r}")
    rows: list[SweepRow] = []
    for vo in outer[1]:
        for vi in inner[1]:
            kv = dict(fixed)
            kv[outer[0]] = float(vo)
            kv[inner[0]] = float(vi)
            try:
                params = validate_params(**kv)
            except ValueError:
                rows.append(SweepRow(**kv, feasible=False, theta_max=None, p_star=None, percentages=None))
                continue
            p = p_star(params)
            pairs = [(float(h), expected_percentage(h, p)) for h in horizons]
            pairs.append((math.inf, asymptotic_percentage(p)))
            rows.append(SweepRow(**kv, feasible=True, theta_max=capture_circle_solution(params).theta_max,
                                 p_star=p, percentages=tuple(pairs)))
    return rows
