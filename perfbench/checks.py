"""Workloads of the perimdef benchmark and the checks on their outputs.

Each workload is one CLI command, run as a user runs it.  Its check reads the
files the command wrote and compares them with references computed here from
the paper's formulas (the closed-form capture statistics, the assumption
clauses), not with the library's own code.  A check returns a list of failures,
each ``"<tag>: <detail>"``; an empty list means the output is correct.  Every
check comes with corruptions that it must reject, so a check that could never
fail shows up as a failed self-test.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

GAME = ["--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--nu", "0.8"]
# p* = theta_max/pi for GAME, recorded from the engagement solver.  The
# simulate check computes its closed form from this value, so a solver change
# that moves p* by more than 1e-9 fails the check.
P_STAR = 0.6389435320791843

SIM_N = 500
SIM_TRIALS = 200
SWEEP_R_T = 5.0
SWEEP_NU = 0.75
# (name, lo, hi, steps) of the paper's 15x25 annulus-width sweep.
SWEEP_GRID = (("rho_a", 0.2, 3.0, 15), ("rho_t", 4.0, 16.0, 25))
SWEEP_HORIZONS = (20, 100)

Outputs = dict[str, str]
Failures = list[str]


def expected_resets(n: int, p: float) -> float:
    """E[breaches after n games] for the two-state chain that starts at the center.

    Before game k the defender is on the capture circle with probability
    c_k = (1 - q^(k-1)) / (2 - p), q = -(1 - p), and a game played from the
    circle is lost with probability 1 - p; summing (1 - p) c_k over k = 1..n
    gives the expression below.
    """
    q = -(1.0 - p)
    return (1.0 - p) * (n - (1.0 - q**n) / (1.0 - q)) / (2.0 - p)


def expected_percentage(n: int, p: float) -> float:
    return 100.0 * (n - expected_resets(n, p)) / n


def feasible(r_t: float, rho_t: float, rho_a: float, nu: float) -> bool:
    """The paper's assumption: both annulus clauses fit within rho_t."""
    if not (0.0 < nu < 1.0) or min(r_t, rho_t, rho_a) <= 0.0:
        return False
    over = 1.0 - nu * nu
    first = (1.0 + 2.0 * nu / over) * rho_a
    second = nu * r_t + 2.0 * rho_a * nu * nu / over
    return max(first, second) <= rho_t


def sweep_axes(seed: int) -> list[tuple[str, float, float, int]]:
    """Both grid ranges shifted by one seeded fraction of a step; seed 0 is the paper grid."""
    frac = 0.0 if seed == 0 else random.Random(seed).random()
    axes = []
    for name, lo, hi, steps in SWEEP_GRID:
        shift = frac * (hi - lo) / (steps - 1)
        axes.append((name, lo + shift, hi + shift, steps))
    return axes


def _axis_values(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _table(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"data row {i} has {len(row)} cells, want {len(header)}")
    return rows


def _keys(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"line {line!r} is not 'key = value'")
        values[key] = value
    return values


# --- simulate --------------------------------------------------------------

SIM_HEADER = ["N", "mean_pct", "ci_lo", "ci_hi", "analytic_pct", "asymptotic_pct"]
TRIALS_HEADER = ["trial", "N", "pct"]


def simulate_argv(seed: int) -> list[str]:
    return ["simulate", *GAME, "--n", str(SIM_N), "--trials", str(SIM_TRIALS),
            "--seed", str(seed), "--out", "sim.csv"]


def check_simulate(out: Outputs) -> Failures:
    fails: Failures = []
    summary = [[float(c) for c in row] for row in _table(out["sim.csv"], SIM_HEADER)]
    trials = [[float(c) for c in row] for row in _table(out["sim_trials.csv"], TRIALS_HEADER)]
    if len(summary) != SIM_N:
        fails.append(f"rows: sim.csv has {len(summary)} rows, want {SIM_N}")
    if len(trials) != SIM_N * SIM_TRIALS:
        fails.append(f"rows: sim_trials.csv has {len(trials)} rows, want {SIM_N * SIM_TRIALS}")

    asym = 100.0 / (2.0 - P_STAR)
    worst_cf = worst_asym = 0.0
    for i, (n, _, _, _, analytic, asymptotic) in enumerate(summary):
        if n != i + 1:
            fails.append(f"rows: sim.csv row {i} has N = {n:g}")
            break
        worst_cf = max(worst_cf, abs(analytic - expected_percentage(i + 1, P_STAR)))
        worst_asym = max(worst_asym, abs(asymptotic - asym))
    if worst_cf > 1e-9:
        fails.append(f"closed_form: analytic_pct is off the closed form by {worst_cf:.3g}")
    if worst_asym > 1e-9:
        fails.append(f"asymptote: asymptotic_pct is off 100/(2-p*) by {worst_asym:.3g}")

    # Each trial row is 100*k/N with k captures so far; k grows by 0 or 1 per
    # game, and the first game (defender at the center) is always a capture.
    final = []
    for j, (t, n, pct) in enumerate(trials):
        want_t, want_n = divmod(j, SIM_N)
        if (t, n) != (want_t, want_n + 1):
            fails.append(f"trials: row {j} is trial {t:g}, N {n:g}")
            break
        k = round(pct * n / 100.0)
        prev = 0 if n == 1 else round(trials[j - 1][2] * (n - 1) / 100.0)
        if abs(100.0 * k / n - pct) > 1e-9 or k - prev not in (0, 1) or (n == 1 and k != 1):
            fails.append(f"trials: row {j} pct {pct!r} is not a capture count over N = {n:g}")
            break
        if n == SIM_N:
            final.append(pct)

    if summary and len(final) > 1:
        _, mean, lo, hi, analytic, _ = summary[-1]
        ref_mean = math.fsum(final) / len(final)
        ref_half = 1.96 * statistics.stdev(final) / math.sqrt(len(final))
        if abs(mean - ref_mean) > 1e-9 or abs((hi - lo) / 2.0 - ref_half) > 1e-9:
            fails.append(f"summary: final mean/CI {mean!r}/{hi - lo!r} differ from the trials file")
        se = (hi - lo) / (2.0 * 1.96)
        if abs(mean - analytic) > 4.0 * se:
            fails.append(f"4se: final mean {mean:.4f} is {abs(mean - analytic) / se:.1f} SE "
                         f"from analytic {analytic:.4f}")
    return fails


# --- sweep -----------------------------------------------------------------

def sweep_header() -> list[str]:
    return ["rho_a", "rho_t", "feasible", "theta_max", "p_star",
            *(f"pct_n{h}" for h in SWEEP_HORIZONS), "pct_inf"]


def sweep_argv(seed: int) -> list[str]:
    grids = []
    for name, lo, hi, steps in sweep_axes(seed):
        grids += ["--grid", f"{name}={lo!r}:{hi!r}:{steps}"]
    return ["sweep", "--r-t", repr(SWEEP_R_T), "--nu", repr(SWEEP_NU), *grids,
            "--n", ",".join(map(str, SWEEP_HORIZONS)), "--out", "sweep.csv"]


def _contour_fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of rho_t on rho_a, and max residual over mean rho_t."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x in xs)
    resid = max(abs(my + slope * (x - mx) - y) for x, y in points)
    return slope, resid / my


def contour_slope_ok(cells: list[tuple[float, float, float]]) -> tuple[bool, str]:
    """Criterion 6's rule on (rho_a, rho_t, pct_inf) cells of the feasible region.

    For targets 75, 80 and 70 in turn, each rho_a column gives the first
    rho_t where pct_inf crosses the target, linearly interpolated; the check
    passes on the first target whose line has slope in [2, 3] and relative
    residual at most 10%.
    """
    columns: dict[float, list[tuple[float, float]]] = {}
    for rho_a, rho_t, pct in cells:
        columns.setdefault(rho_a, []).append((rho_t, pct))
    seen = []
    for target in (75.0, 80.0, 70.0):
        points = []
        for rho_a in sorted(columns):
            col = sorted(columns[rho_a])
            for (t0, v0), (t1, v1) in zip(col, col[1:]):
                if v0 == target or (v0 - target) * (v1 - target) < 0.0:
                    points.append((rho_a, t0 + (target - v0) * (t1 - t0) / (v1 - v0)))
                    break
        if len(points) < 2:
            seen.append(f"{target:g}%: {len(points)} points")
            continue
        slope, rel = _contour_fit(points)
        if 2.0 <= slope <= 3.0 and rel <= 0.10:
            return True, f"{target:g}% contour slope {slope:.3f}"
        seen.append(f"{target:g}%: slope {slope:.3f}, residual {rel:.1%}")
    return False, "; ".join(seen)


def check_sweep(out: Outputs, seed: int) -> Failures:
    fails: Failures = []
    rows = _table(out["sweep.csv"], sweep_header())
    (_, alo, ahi, asteps), (_, tlo, thi, tsteps) = sweep_axes(seed)
    grid = [(a, t) for a in _axis_values(alo, ahi, asteps) for t in _axis_values(tlo, thi, tsteps)]
    if len(rows) != len(grid):
        fails.append(f"rows: {len(rows)} rows, want {len(grid)}")
    cells = []
    bad: dict[str, str] = {}
    for i, (row, (rho_a, rho_t)) in enumerate(zip(rows, grid)):
        a, t, flag = float(row[0]), float(row[1]), row[2]
        if not (_close(a, rho_a, 1e-10) and _close(t, rho_t, 1e-10)):
            bad.setdefault("grid", f"row {i} is ({a!r}, {t!r}), want ({rho_a!r}, {rho_t!r})")
            continue
        want = feasible(SWEEP_R_T, rho_t, rho_a, SWEEP_NU)
        if flag != ("1" if want else "0"):
            bad.setdefault("feasible", f"row {i} ({a:g}, {t:g}) has feasible = {flag}, want {int(want)}")
        if flag != "1":
            if any(row[3:]):
                bad.setdefault("cells", f"infeasible row {i} carries statistics")
            continue
        theta, p, *pcts, pct_inf = (float(c) for c in row[3:])
        if not (0.0 < theta <= math.pi + 1e-10) or not _close(p, theta / math.pi, 1e-10):
            bad.setdefault("p_star", f"row {i}: p_star {p!r} != theta_max/pi {theta / math.pi!r}")
        if not _close(pct_inf, 100.0 / (2.0 - p), 1e-10):
            bad.setdefault("pct_inf", f"row {i}: pct_inf {pct_inf!r} != 100/(2-p*)")
        for h, pct in zip(SWEEP_HORIZONS, pcts):
            if abs(pct - expected_percentage(h, p)) > 1e-8:
                bad.setdefault("closed_form", f"row {i}: pct_n{h} {pct!r} is off the closed form")
        if abs(pcts[0] - pct_inf) > 5.0:
            bad.setdefault("n20_gap", f"row {i}: |pct_n20 - pct_inf| = {abs(pcts[0] - pct_inf):.3f} > 5")
        cells.append((a, t, pct_inf))
    fails += [f"{tag}: {detail}" for tag, detail in bad.items()]
    ok, detail = contour_slope_ok(cells)
    if not ok:
        fails.append(f"slope: no iso-percentage contour with slope in [2, 3] ({detail})")
    return fails


def sweep_feasible_points(out: Outputs) -> int:
    return sum(row[2] == "1" for row in _table(out["sweep.csv"], sweep_header()))


# --- workloads -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    files: tuple[str, ...]
    check: Callable[[Outputs, int], Failures]
    # (tag, corruption) pairs: the check must report ``tag`` on the corrupted output
    corruptions: tuple[tuple[str, Callable[[Outputs], Outputs]], ...]
    # span name -> expected count in a traced op, from the op's output
    expected_spans: Callable[[Outputs], dict[str, int]]


def check_output(workload: Workload, out: Outputs, rc: int, seed: int) -> Failures:
    """Every check of one op's result; a malformed file is a failure, not a crash."""
    fails = [] if rc == 0 else [f"exit: code {rc}"]
    missing = [f for f in workload.files if f not in out]
    if missing:
        return fails + [f"missing: {', '.join(missing)}"]
    try:
        return fails + workload.check(out, seed)
    except (ValueError, KeyError, IndexError, ZeroDivisionError, statistics.StatisticsError) as exc:
        return fails + [f"parse: {type(exc).__name__}: {exc}"]


def digests(out: Outputs) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in out.items()}


def check_identical(out: Outputs, reference: dict[str, str]) -> Failures:
    """Reruns with the same seed must write byte-identical files."""
    changed = sorted(n for n, d in digests(out).items() if reference.get(n) != d)
    return [f"identical: {', '.join(changed)} differ from the first run"] if changed else []


def self_test(workload: Workload, out: Outputs, seed: int) -> Failures:
    """Each check must reject its corruptions of a correct output."""
    fails = []
    cases = [*workload.corruptions, ("exit", None)]
    for tag, corrupt in cases:
        rc = 1 if corrupt is None else 0
        got = check_output(workload, out if corrupt is None else corrupt(dict(out)), rc, seed)
        if not any(f.startswith(tag + ":") for f in got):
            fails.append(f"selftest: the {tag!r} check accepted a corrupted {workload.name} output")
    reference = digests(out)
    first = workload.files[0]
    if not check_identical({**out, first: out[first] + "\n"}, reference):
        fails.append("selftest: the 'identical' check accepted a changed file")
    return fails


def _edit(text: str, row: int, col: int, fn: Callable[[str], str]) -> str:
    """Apply ``fn`` to one cell of a CSV (``row`` counts data rows)."""
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _bump_digit(cell: str, k: int = 3) -> str:
    """Change the k-th significant digit of a number."""
    seen = 0
    for i, ch in enumerate(cell):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == k:
                return cell[:i] + str((int(ch) + 1) % 10) + cell[i + 1:]
    raise ValueError(f"{cell!r} has fewer than {k} significant digits")


def _first_feasible(text: str) -> int:
    return next(i for i, line in enumerate(text.splitlines()[1:]) if line.split(",")[2] == "1")


def _sim_off_by_10se(out: Outputs) -> Outputs:
    last = out["sim.csv"].splitlines()[-1].split(",")
    se = (float(last[3]) - float(last[2])) / (2.0 * 1.96)
    shifted = repr(float(last[4]) + 10.0 * se)
    out["sim.csv"] = _edit(out["sim.csv"], SIM_N - 1, 1, lambda _: shifted)
    return out


def _sim_corruptions():
    def analytic_digit(o):
        o["sim.csv"] = _edit(o["sim.csv"], SIM_N // 2, 4, _bump_digit)
        return o

    def asymptote_digit(o):
        o["sim.csv"] = _edit(o["sim.csv"], 0, 5, _bump_digit)
        return o

    def drop_trial_row(o):
        o["sim_trials.csv"] = "".join(o["sim_trials.csv"].splitlines(keepends=True)[:-1])
        return o

    def bad_trial_pct(o):
        o["sim_trials.csv"] = _edit(o["sim_trials.csv"], 1234, 2, lambda c: repr(float(c) + 0.5))
        return o

    return (("closed_form", analytic_digit), ("asymptote", asymptote_digit),
            ("4se", _sim_off_by_10se), ("summary", _sim_off_by_10se),
            ("rows", drop_trial_row), ("trials", bad_trial_pct))


def _sweep_corruptions():
    def on_first_feasible(col, fn):
        def corrupt(o):
            o["sweep.csv"] = _edit(o["sweep.csv"], _first_feasible(o["sweep.csv"]), col, fn)
            return o
        return corrupt

    col = sweep_header().index

    def n20_far(o):
        i = _first_feasible(o["sweep.csv"])
        pct_inf = float(o["sweep.csv"].splitlines()[i + 1].split(",")[col("pct_inf")])
        o["sweep.csv"] = _edit(o["sweep.csv"], i, col("pct_n20"), lambda _: repr(pct_inf - 6.0))
        return o

    def stretch_rho_t(o):
        lines = o["sweep.csv"].splitlines()
        for i in range(len(lines) - 1):
            o["sweep.csv"] = _edit(o["sweep.csv"], i, col("rho_t"), lambda c: repr(2.0 * float(c)))
        return o

    def drop_row(o):
        o["sweep.csv"] = "".join(o["sweep.csv"].splitlines(keepends=True)[:-1])
        return o

    return (("feasible", on_first_feasible(col("feasible"), lambda _: "0")),
            ("p_star", on_first_feasible(col("p_star"), _bump_digit)),
            ("pct_inf", on_first_feasible(col("pct_inf"), _bump_digit)),
            ("n20_gap", n20_far), ("slope", stretch_rho_t), ("rows", drop_row))


# Each workload loads a different layer.  `trace` and `analytic` are left out:
# a trace op is one ~0.1 s game, so interpreter start-up would dominate it,
# and the simulate column already runs expected_percentage harder than
# analytic does.  `verify` is left out too: on a shared 2-core host the op
# times drift by up to 1.5x over tens of seconds, and only two workloads leave
# each run long enough for its median to average that drift out.
WORKLOADS = {
    "simulate": Workload(
        name="simulate",
        why="100k event-level games and a 2 MB trials CSV: run_session, the per-prefix "
            "expected_percentage column and the row writer each hold a large share of the op",
        argv=simulate_argv,
        files=("sim.csv", "sim_trials.csv"),
        check=lambda out, seed: check_simulate(out),
        corruptions=_sim_corruptions(),
        expected_spans=lambda out: {"cli.main": 1, "cli.cmd_simulate": 1,
                                    "engine.run_session": SIM_TRIALS},
    ),
    "sweep": Workload(
        name="sweep",
        why="the paper's 15x25 grid, seed-shifted: one cold optimize_engagement per feasible "
            "point dominates, analytics runs only short horizons and no games are played",
        argv=sweep_argv,
        files=("sweep.csv",),
        check=check_sweep,
        corruptions=_sweep_corruptions(),
        expected_spans=lambda out: {"cli.main": 1, "cli.cmd_sweep": 1,
                                    "strategy.optimize_engagement": sweep_feasible_points(out)},
    ),
}
