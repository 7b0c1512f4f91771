"""Command-line front end: seeded simulations, analytic tables, sweeps,
kinematic verification, and single-game traces.

All outputs are deterministic for a fixed configuration and seed; CSV floats
carry 12 significant digits so regression diffs are meaningful.  Exit codes:
0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analytics, engine, strategy
from .geometry import AssumptionViolated, validate_params

CONFIG_KEYS = {
    "r_t", "rho_t", "rho_a", "nu", "n", "trials", "seed",
    "out", "format", "dt", "eps_capture", "theta_a", "defender_angle",
}

_FLOAT_KEYS = {"r_t", "rho_t", "rho_a", "nu", "dt", "eps_capture", "theta_a", "defender_angle"}
_INT_KEYS = {"trials", "seed"}
FORMATS = ("csv", "jsonl")
# Most parameter points one sweep may ask for (outer steps x inner steps).
MAX_GRID_POINTS = 1_000_000
# Largest capture-point error between replay and event-level game that verify accepts.
MAX_DISCREPANCY = 5e-3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_rows(path: Path, header: Sequence[str], rows, fmt: str, meta: Optional[dict] = None) -> None:
    with open(path, "w", newline="\n") as fh:
        if fmt == "csv":
            if meta:
                for key, value in meta.items():
                    fh.write(f"# {key} = {value}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            if meta:
                fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in _FLOAT_KEYS:
            values[key] = float(val)
        elif key in _INT_KEYS:
            values[key] = int(val)
        else:
            values[key] = val
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Flags override config-file values, which override built-in defaults."""
    merged = _load_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    merged.setdefault("format", "csv")
    merged.setdefault("seed", 1)
    merged.setdefault("trials", 100)
    if merged["format"] not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {merged['format']!r}")
    for key in sorted(_FLOAT_KEYS & merged.keys()):
        if not math.isfinite(merged[key]):
            raise ValueError(f"{key} must be finite, got {merged[key]!r}")
        if key in ("dt", "eps_capture") and not merged[key] > 0.0:
            raise ValueError(f"{key} must be positive, got {merged[key]!r}")
    return merged


def _given(cfg: dict, *keys: str) -> dict:
    """The options among ``keys`` that were set, so the library keeps its own defaults."""
    return {k: cfg[k] for k in keys if cfg.get(k) is not None}


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _params_from(cfg: dict):
    _require(cfg, "r_t", "rho_t", "rho_a", "nu")
    return validate_params(cfg["r_t"], cfg["rho_t"], cfg["rho_a"], cfg["nu"])


def _parse_horizons(text: str) -> list[int]:
    horizons = [int(part) for part in text.split(",") if part.strip()]
    if not horizons or any(h < 1 for h in horizons):
        raise ValueError(f"horizons must be positive integers, got {text!r}")
    return horizons


def _parse_grid(spec: str) -> tuple[str, float, float, int]:
    name, _, rng = spec.partition("=")
    name = name.strip()
    if name not in analytics.PARAM_NAMES:
        raise ValueError(f"grid parameter must be one of {analytics.PARAM_NAMES}, got {name!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must look like name=lo:hi:steps, got {spec!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)) or steps < 1 or hi < lo:
        raise ValueError(f"bad grid range in {spec!r}")
    return name, lo, hi, steps


def _grid_axis(name: str, lo: float, hi: float, steps: int) -> tuple[str, list[float]]:
    if steps == 1:
        return name, [lo]
    return name, [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_simulate(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    n = int(cfg["n"])
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    if n < 1 or trials < 1:
        raise ValueError("--n and --trials must be >= 1")
    records = [engine.run_session(params, n, seed + t) for t in range(trials)]
    stats = analytics.aggregate_sessions(records)
    p = analytics.p_star(params)
    asym = analytics.asymptotic_percentage(p)
    analytic = [analytics.expected_percentage(k, p) for k in range(1, n + 1)]

    out = Path(cfg["out"])
    fmt = cfg["format"]
    summary_rows = [
        (int(stats.n[i]), stats.mean_pct[i], stats.ci_lo[i], stats.ci_hi[i], analytic[i], asym)
        for i in range(n)
    ]
    _write_rows(out, ["N", "mean_pct", "ci_lo", "ci_hi", "analytic_pct", "asymptotic_pct"], summary_rows, fmt)

    trial_rows = (
        (t, i, pct) for t, row in enumerate(stats.pct.tolist()) for i, pct in enumerate(row, start=1)
    )
    trials_path = out.with_name(out.stem + "_trials" + out.suffix)
    _write_rows(trials_path, ["trial", "N", "pct"], trial_rows, fmt)
    return 0


def cmd_analytic(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    horizons = _parse_horizons(str(cfg["n"]))
    p = analytics.p_star(params)
    rows = [(h, analytics.expected_resets(h, p), analytics.expected_percentage(h, p)) for h in horizons]
    rows.append(("inf", None, analytics.asymptotic_percentage(p)))
    _write_rows(Path(cfg["out"]), ["N", "expected_resets", "percentage"], rows, cfg["format"])
    return 0


def cmd_sweep(cfg: dict, grids: list[str]) -> int:
    _require(cfg, "out")
    if len(grids) != 2:
        raise ValueError("sweep needs exactly two --grid specifications")
    outer_spec, inner_spec = _parse_grid(grids[0]), _parse_grid(grids[1])
    points = outer_spec[3] * inner_spec[3]
    if points > MAX_GRID_POINTS:
        raise ValueError(f"sweep grid has {points} points, more than the limit of {MAX_GRID_POINTS}")
    outer = _grid_axis(*outer_spec)
    inner = _grid_axis(*inner_spec)
    fixed_names = [p for p in analytics.PARAM_NAMES if p not in (outer[0], inner[0])]
    if len(fixed_names) != 2:
        raise ValueError("grid parameters must be two distinct names")
    _require(cfg, *fixed_names)
    fixed = {name: float(cfg[name]) for name in fixed_names}
    horizons = _parse_horizons(str(cfg["n"])) if cfg.get("n") else [20]

    rows = analytics.sweep(outer, inner, fixed, horizons)
    header = [outer[0], inner[0], "feasible", "theta_max", "p_star"]
    header += [f"pct_n{h}" for h in horizons] + ["pct_inf"]
    out_rows = []
    for row in rows:
        cells = [getattr(row, outer[0]), getattr(row, inner[0]), int(row.feasible), row.theta_max, row.p_star]
        if row.feasible:
            cells += [row.percentage(float(h)) for h in horizons] + [row.percentage(math.inf)]
        else:
            cells += [None] * (len(horizons) + 1)
        out_rows.append(tuple(cells))
    _write_rows(Path(cfg["out"]), header, out_rows, cfg["format"])
    return 0


def cmd_verify(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    report = engine.verify_outcome_agreement(
        params, int(cfg["n"]), int(cfg["seed"]), **_given(cfg, "dt", "eps_capture"),
    )
    ok = report.all_agree and report.max_capture_point_error <= MAX_DISCREPANCY
    lines = [
        f"n_games = {report.n_games}",
        f"n_compared = {report.n_compared}",
        f"n_boundary_skipped = {report.n_boundary_skipped}",
        f"n_mismatches = {report.n_mismatches}",
        f"max_capture_point_error = {_fmt(report.max_capture_point_error)}",
        f"max_circle_distance = {_fmt(report.max_circle_distance)}",
        f"max_breach_defender_offset = {_fmt(report.max_breach_defender_offset)}",
        f"verdict = {'agree' if ok else 'disagree'}",
    ]
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_trace(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "theta_a", "out")
    theta_a = float(cfg["theta_a"])
    if cfg.get("defender_angle") is None:
        state: strategy.DefenderState = strategy.AtCenter()
        mirror = 1.0
    else:
        state = strategy.OnCaptureCircle(float(cfg["defender_angle"]))
        mirror = 1.0 if engine.wrap_angle(state.angle - theta_a) >= 0.0 else -1.0
    traj = engine.simulate_kinematic(state, theta_a, params, **_given(cfg, "dt", "eps_capture"))

    tau_min, tau_max = strategy.engagement_domain(params)
    polyline = []
    for i in range(257):
        tau = tau_min + (tau_max - tau_min) * i / 256
        cand = strategy.engagement_candidate(tau, params)
        world = engine.to_world(cand.x_d_eng, theta_a, mirror)
        polyline.append(f"{world.x:.9g}:{world.y:.9g}")
    terminal = traj.terminal
    meta = {
        "capture_circle_radius": _fmt(strategy.capture_circle_radius(params)),
        "terminal": "capture" if isinstance(terminal, engine.CaptureAt) else "breach",
        "terminal_x": _fmt(terminal.point.x),
        "terminal_y": _fmt(terminal.point.y),
        "engagement_surface": " ".join(polyline),
    }
    rows = [
        (s.t, s.x_a.x, s.x_a.y, s.x_d.x, s.x_d.y, s.phase.value)
        for s in traj.samples
    ]
    _write_rows(Path(cfg["out"]), ["t", "ax", "ay", "dx", "dy", "phase"], rows, cfg["format"], meta=meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perimdef",
        description="Sequential perimeter-defense game simulator and analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file; flags take precedence")
        p.add_argument("--r-t", dest="r_t", type=float, help="target radius")
        p.add_argument("--rho-t", dest="rho_t", type=float, help="sensing annulus width")
        p.add_argument("--rho-a", dest="rho_a", type=float, help="intruder sensing radius")
        p.add_argument("--nu", type=float, help="intruder/defender speed ratio, in (0, 1)")
        p.add_argument("--seed", type=int, help="base RNG seed (default 1)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=FORMATS, help="output format (default csv)")

    p = sub.add_parser("simulate", help="run seeded sessions and write mean/CI table vs analytics")
    add_common(p)
    p.add_argument("--n", help="arrivals per session")
    p.add_argument("--trials", type=int, help="number of sessions (default 100)")

    p = sub.add_parser("analytic", help="closed-form expected resets and capture percentage")
    add_common(p)
    p.add_argument("--n", help="comma-separated horizons, e.g. 1,20,200")

    p = sub.add_parser("sweep", help="two-parameter grid of capture statistics")
    add_common(p)
    p.add_argument("--grid", action="append", default=[], metavar="name=lo:hi:steps",
                   help="varied parameter; give exactly twice")
    p.add_argument("--n", help="comma-separated horizons (default 20); the asymptote is always included")

    p = sub.add_parser("verify", help="replay games kinematically and check verdict agreement")
    add_common(p)
    p.add_argument("--n", help="number of games to replay")
    p.add_argument("--dt", type=float, help="integrator timestep (default 1e-4)")
    p.add_argument("--eps-capture", dest="eps_capture", type=float, help="capture distance (default 1e-3)")

    p = sub.add_parser("trace", help="export one game's trajectory with plot metadata")
    add_common(p)
    p.add_argument("--theta-a", dest="theta_a", type=float, help="arrival bearing (rad)")
    p.add_argument("--defender-angle", dest="defender_angle", type=float,
                   help="defender bearing on the capture circle; omit for the center")
    p.add_argument("--dt", type=float, help="integrator timestep (default 1e-4 * (r_t + rho_t))")
    p.add_argument("--eps-capture", dest="eps_capture", type=float, help="capture distance (default 1e-3)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "analytic":
            return cmd_analytic(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.grid)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_trace(cfg)
    except AssumptionViolated as exc:
        print(f"invalid parameters ({exc.which} condition): {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
