"""Capture statistics: closed forms, an exact Markov oracle, and sweeps.

A session alternates runs of captures (the defender hopping along the
capture circle) broken by breaches that send it back to the center.  Run
lengths are geometric in the per-game capture probability ``p*``, which
makes the breach count over a finite horizon negative-binomial
(``resets_tail_all`` gives its tail distribution).  The expected breach
count, and with it the expected capture percentage, has an O(1) closed form
in ``expected_resets``.  The two-state dynamic program ``markov_oracle``
recomputes the distribution by brute force so the tails can be checked
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .engine import SessionRecord
from .geometry import AssumptionViolated, GameParams, validate_params
from .strategy import capture_circle_solution

PARAM_NAMES = ("r_t", "rho_t", "rho_a", "nu")
# Width in rho_t to which level_set_slope bisects each contour column.
LEVEL_SET_TOL = 1e-6


class DomainError(ValueError):
    """Argument outside the distribution's domain."""


class LengthMismatch(ValueError):
    """Aggregated sessions must share one horizon."""


class ContourNotFound(ValueError):
    """The requested percentage level is not bracketed by the sweep."""


def _check_probability(p_star: float) -> None:
    if not (0.0 <= p_star <= 1.0):
        raise DomainError(f"p_star must lie in [0, 1], got {p_star!r}")


def p_star(params: GameParams) -> float:
    """Per-game capture probability for a defender on the capture circle."""
    return capture_circle_solution(params).theta_max / math.pi


def travel_pmf(k: int, p_star: float) -> float:
    """Probability that a capture run between breaches has length ``k``."""
    if k < 1:
        raise DomainError(f"travel length must be >= 1, got {k!r}")
    if not (0.0 <= p_star < 1.0):
        raise DomainError(f"p_star must lie in [0, 1), got {p_star!r}")
    return p_star ** (k - 1) * (1.0 - p_star)


def total_captures_pmf(n: int, m: int, p_star: float) -> float:
    """Probability that ``m`` capture runs account for exactly ``n`` captures.

    Negative-binomial mass, evaluated in log space so large horizons do not
    overflow the binomial coefficient.
    """
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m!r}, n={n!r}")
    _check_probability(p_star)
    if p_star == 0.0:
        return 1.0 if n == m else 0.0
    if p_star == 1.0:
        return 0.0
    log_c = math.lgamma(n) - math.lgamma(m) - math.lgamma(n - m + 1)
    return math.exp(log_c + (n - m) * math.log(p_star) + m * math.log1p(-p_star))


def resets_tail_all(n: int, p_star: float) -> np.ndarray:
    """P(breach count after ``n`` games exceeds m), for every m = 0..n.

    Each tail is a sum of negative-binomial masses, evaluated in log space;
    ``markov_oracle`` checks them.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    _check_probability(p_star)
    tails = np.zeros(n + 1)
    if p_star == 1.0:
        return tails
    top = (n - 2) // 2
    if p_star == 0.0:
        tails[: top + 1] = 1.0
        return tails
    log_fact = np.zeros(n + 1)
    log_fact[1:] = np.cumsum(np.log(np.arange(1, n + 1)))
    log_p, log_q = math.log(p_star), math.log1p(-p_star)
    for m in range(top + 1):
        j = np.arange(m + 1, n - m)
        log_c = log_fact[j - 1] - log_fact[m] - log_fact[j - 1 - m]
        tails[m] = np.exp(log_c + (j - m - 1) * log_p + (m + 1) * log_q).sum()
    return tails


def expected_resets(n: int, p_star: float) -> float:
    """E[breach count after ``n`` games], in closed form.

    The chain starts at the center, so before game k the defender is on the
    capture circle with probability ``(1 - q^(k-1)) / (2 - p)``, where
    ``q = -(1 - p)``; each game played from the circle is lost with
    probability ``1 - p``.  Summing over k = 1..n gives the expression below.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    _check_probability(p_star)
    q = -(1.0 - p_star)
    return (1.0 - p_star) * (n - (1.0 - q**n) / (1.0 - q)) / (2.0 - p_star)


def expected_percentage(n: int, p_star: float) -> float:
    """Expected percentage of captures over the first ``n`` games."""
    return 100.0 * (n - expected_resets(n, p_star)) / n


def asymptotic_percentage(p_star: float) -> float:
    """Long-run capture percentage for an unbounded arrival stream."""
    _check_probability(p_star)
    return 100.0 / (2.0 - p_star)


def markov_oracle(n: int, p_star: float) -> np.ndarray:
    """Exact pmf of the breach count after ``n`` games, by dynamic programming.

    State is (defender position, breaches so far) with position in
    {center, circle}; the chain starts at the center.  Independent of the
    closed-form route, so it can arbitrate it.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    _check_probability(p_star)
    max_k = n // 2 + 1
    prob = np.zeros((max_k + 1, 2))  # columns: center, circle
    prob[0, 0] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(prob)
        nxt[:, 1] = prob[:, 0] + p_star * prob[:, 1]
        nxt[1:, 0] = (1.0 - p_star) * prob[:-1, 1]
        prob = nxt
    return prob.sum(axis=1)[: n // 2 + 1]


@dataclass(frozen=True)
class PrefixStats:
    """Mean capture percentage per prefix across sessions, with 95% CI.

    ``pct[t, i]`` is session ``t``'s capture percentage over its first
    ``i + 1`` games.
    """

    n: np.ndarray
    mean_pct: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    pct: np.ndarray


def aggregate_sessions(records: Sequence[SessionRecord]) -> PrefixStats:
    """Per-prefix mean and normal-approximation confidence band."""
    if not records:
        raise ValueError("no sessions to aggregate")
    length = len(records[0].outcomes)
    if any(len(r.outcomes) != length for r in records):
        raise LengthMismatch("sessions have differing lengths")
    captures = np.array([r.outcomes for r in records], dtype=float)
    prefix_n = np.arange(1, length + 1, dtype=float)
    pct = 100.0 * np.cumsum(captures, axis=1) / prefix_n
    mean = pct.mean(axis=0)
    if len(records) > 1:
        half = 1.96 * pct.std(axis=0, ddof=1) / math.sqrt(len(records))
    else:
        half = np.zeros(length)
    return PrefixStats(
        n=prefix_n.astype(int), mean_pct=mean, ci_lo=mean - half, ci_hi=mean + half, pct=pct
    )


@dataclass(frozen=True)
class SweepRow:
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

    def percentage(self, horizon: float) -> float:
        if self.percentages is None:
            raise KeyError("infeasible grid point has no percentages")
        for h, pct in self.percentages:
            if h == horizon:
                return pct
        raise KeyError(f"horizon {horizon!r} not in sweep")


def sweep(
    outer: tuple[str, Sequence[float]],
    inner: tuple[str, Sequence[float]],
    fixed: Mapping[str, float],
    horizons: Sequence[int] = (20,),
) -> list[SweepRow]:
    """Evaluate capture statistics over a two-parameter grid.

    Rows come out in row-major order (outer axis slowest).  Grid points
    violating the parametric assumptions are flagged infeasible and carry no
    statistics; that is data, not an error.
    """
    names = {outer[0], inner[0], *fixed}
    if names != set(PARAM_NAMES) or len(fixed) != 2 or outer[0] == inner[0]:
        raise ValueError(
            f"sweep axes plus fixed values must cover {PARAM_NAMES} exactly once"
        )
    rows: list[SweepRow] = []
    for vo in outer[1]:
        for vi in inner[1]:
            kv = dict(fixed)
            kv[outer[0]] = float(vo)
            kv[inner[0]] = float(vi)
            try:
                params = validate_params(**kv)
            except (AssumptionViolated, ValueError):
                rows.append(
                    SweepRow(
                        kv["r_t"], kv["rho_t"], kv["rho_a"], kv["nu"],
                        feasible=False, theta_max=None, p_star=None, percentages=None,
                    )
                )
                continue
            p = p_star(params)
            pairs = [(float(h), expected_percentage(h, p)) for h in horizons]
            pairs.append((math.inf, asymptotic_percentage(p)))
            rows.append(
                SweepRow(
                    kv["r_t"], kv["rho_t"], kv["rho_a"], kv["nu"], feasible=True,
                    theta_max=capture_circle_solution(params).theta_max,
                    p_star=p, percentages=tuple(pairs),
                )
            )
    return rows


@dataclass(frozen=True)
class LevelSetFit:
    """Least-squares line through an iso-percentage contour."""

    slope: float
    intercept: float
    max_residual: float
    rel_residual: float
    points: tuple[tuple[float, float], ...]


def level_set_slope(
    rows: Sequence[SweepRow],
    target_percentage: float,
    horizon: float = math.inf,
) -> LevelSetFit:
    """Fit a line to one iso-percentage contour of an annulus-width sweep.

    Expects rows varying ``rho_a`` and ``rho_t`` with the other parameters
    fixed.  Each ``rho_a`` column is refined by true bisection in ``rho_t``
    (re-evaluating the model, not interpolating the table), then the contour
    points are fit by least squares.
    """
    r_t_values = {row.r_t for row in rows}
    nu_values = {row.nu for row in rows}
    if len(r_t_values) != 1 or len(nu_values) != 1:
        raise ValueError("level-set extraction needs r_t and nu fixed")
    r_t = r_t_values.pop()
    nu = nu_values.pop()

    def pct_at(rho_a: float, rho_t: float) -> float:
        params = validate_params(r_t, rho_t, rho_a, nu)
        p = p_star(params)
        if math.isinf(horizon):
            return asymptotic_percentage(p)
        return expected_percentage(int(horizon), p)

    columns: dict[float, list[SweepRow]] = {}
    for row in rows:
        columns.setdefault(row.rho_a, []).append(row)

    points: list[tuple[float, float]] = []
    for rho_a in sorted(columns):
        cells = sorted(
            (r for r in columns[rho_a] if r.feasible), key=lambda r: r.rho_t
        )
        bracket = None
        for lo_row, hi_row in zip(cells, cells[1:]):
            lo_v = lo_row.percentage(horizon) - target_percentage
            hi_v = hi_row.percentage(horizon) - target_percentage
            if lo_v == 0.0:
                bracket = (lo_row.rho_t, lo_row.rho_t)
                break
            if lo_v * hi_v < 0.0:
                bracket = (lo_row.rho_t, hi_row.rho_t)
                break
        if bracket is None:
            continue
        lo, hi = bracket
        if lo == hi:
            points.append((rho_a, lo))
            continue
        f_lo = pct_at(rho_a, lo) - target_percentage
        while hi - lo > LEVEL_SET_TOL:
            mid = 0.5 * (lo + hi)
            f_mid = pct_at(rho_a, mid) - target_percentage
            if (f_lo <= 0.0) == (f_mid <= 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        points.append((rho_a, 0.5 * (lo + hi)))

    if len(points) < 2:
        raise ContourNotFound(
            f"percentage level {target_percentage!r} bracketed in "
            f"{len(points)} column(s); need at least 2"
        )
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    max_res = float(np.max(np.abs(fit - ys)))
    return LevelSetFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=max_res,
        rel_residual=max_res / float(np.mean(ys)),
        points=tuple(points),
    )
