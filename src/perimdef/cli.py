"""Command-line front end: seeded simulations, analytic tables, sweeps,
kinematic verification, and single-game traces.

All outputs are deterministic for a fixed configuration and seed; CSV floats
carry 12 significant digits so regression diffs are meaningful.  Exit codes:
0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import strategy
from .geometry import AssumptionViolated, validate_params

if TYPE_CHECKING:
    from . import analytics

FORMATS = ("csv", "jsonl")
# The command line, each fact once.  An option is named by its config key, its
# flag being ``_flag(key)``, and given as (type, help); a type of None keeps the
# text.  Every command takes the common options, then its own: it takes an
# option only if it reads it.
_COMMON_OPTIONS = {
    "config": (None, "flat key=value config file; flags take precedence"),
    "r_t": (float, "target radius"),
    "rho_t": (float, "sensing annulus width"),
    "rho_a": (float, "intruder sensing radius"),
    "nu": (float, "intruder/defender speed ratio, in (0, 1)"),
    "out": (None, "output file path"),
}
_SEED = {"seed": (int, "base RNG seed (default 1)")}
_FORMAT = {"format": (None, "output format (default csv)")}
# Each command's help and its own options, in the order ``--help`` lists them.
_COMMANDS = {
    "simulate": ("run seeded sessions and write mean/CI table vs analytics",
                 {**_SEED, **_FORMAT, "n": (None, "arrivals per session"),
                  "trials": (int, "number of sessions (default 100)")}),
    "analytic": ("closed-form expected resets and capture percentage",
                 {**_FORMAT, "n": (None, "comma-separated horizons, e.g. 1,20,200")}),
    "sweep": ("two-parameter grid of capture statistics",
              {**_FORMAT, "grid": (None, "varied parameter; give exactly twice"),
               "n": (None, "comma-separated horizons (default 20); the asymptote is always included")}),
    "verify": ("replay games kinematically and check verdict agreement",
               {**_SEED, "n": (None, "number of games to replay")}),
    "trace": ("export one game's trajectory with plot metadata",
              {**_FORMAT, "theta_a": (float, "arrival bearing (rad)"),
               "defender_angle": (float, "defender bearing on the capture circle; omit for the center"),
               "dt": (float, "sample spacing (default 1e-4 * (r_t + rho_t))")}),
}
# The value of an option a command takes but the run does not give.
_DEFAULTS = {"format": "csv", "seed": 1, "trials": 100}
# What argparse is told beyond type and help.  Like --config, --grid is no config key.
_OPTION_SETTINGS = {"format": {"choices": FORMATS},
                    "grid": {"action": "append", "default": [], "metavar": "name=lo:hi:steps"}}
# Each config key and the type its value is read as, the type its flag declares.
CONFIG_TYPES = {key: typ or str for options in (_COMMON_OPTIONS, *(own for _, own in _COMMANDS.values()))
                for key, (typ, _) in options.items() if key not in ("config", "grid")}
# Most parameter points one sweep may ask for (outer steps x inner steps).
MAX_GRID_POINTS = 1_000_000
# Most games one simulation (arrivals per session x sessions) or verify may ask for.
MAX_SIM_GAMES = 10_000_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_rows(path: Path, header: Sequence[str], rows, fmt: str, meta: Optional[dict] = None,
                template: Optional[str] = None) -> None:
    """Write ``rows`` as they come, after the meta lines and the header.

    With ``template``, each row is written as ``template % row`` instead of
    cell by cell; a JSONL template takes the cells in sorted-key order.
    """
    if fmt != "csv":
        import json
    with open(path, "w", newline="\n") as fh:
        if fmt == "csv":
            if meta:
                for key, value in meta.items():
                    fh.write(f"# {key} = {value}\n")
            fh.write(",".join(header) + "\n")
        elif meta:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        if template is not None:
            if fmt == "jsonl":
                by_key = sorted(range(len(header)), key=header.__getitem__)
                rows = map(itemgetter(*by_key), rows)
            lines = (template % row for row in rows)
        elif fmt == "csv":
            lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
        else:
            lines = (json.dumps(dict(zip(header, row)), sort_keys=True) + "\n" for row in rows)
        fh.writelines(lines)


# Summary and trace rows as one ``%`` template per format, byte-identical to
# ``_write_rows`` without a template: ``%.12g`` is ``_fmt``'s float format, and
# ``%r`` is the float repr ``json.dumps`` writes.  JSONL keys are in sorted order.
_SUMMARY_ROW = {"csv": "%d,%.12g,%.12g,%.12g,%.12g,%.12g\n",
                "jsonl": '{"N": %d, "analytic_pct": %r, "asymptotic_pct": %r, "ci_hi": %r, "ci_lo": %r, '
                         '"mean_pct": %r}\n'}
_TRACE_ROW = {"csv": "%.12g,%.12g,%.12g,%.12g,%.12g,%s\n",
              "jsonl": '{"ax": %r, "ay": %r, "dx": %r, "dy": %r, "phase": "%s", "t": %r}\n'}
# One row of the trials file per format, the same bytes as ``_write_rows`` on
# (trial, N, pct) rows.  ``N`` is filled in once per file, and a NUL marks where
# each trial's number goes.
_TRIAL_ROW = {"csv": "\0,%d,%%.12g\n", "jsonl": '{"N": %d, "pct": %%r, "trial": \0}\n'}
# Rows per template: a long session is formatted and written a block at a time.
_TRIAL_BLOCK = 16384


def _write_trials(path: Path, pct: list[list[float]], fmt: str) -> None:
    """Write the per-trial prefix percentages ``pct``, one list of n prefixes per trial."""
    n = len(pct[0])
    blocks = []
    for start in range(0, n, _TRIAL_BLOCK):
        ns = range(start + 1, min(start + _TRIAL_BLOCK, n) + 1)
        blocks.append((start, (_TRIAL_ROW[fmt] * len(ns)) % tuple(ns)))
    with open(path, "w", newline="\n") as fh:
        if fmt == "csv":
            fh.write("trial,N,pct\n")
        for t, row in enumerate(pct):
            mark = str(t)
            for start, template in blocks:
                fh.write((template % tuple(row[start:start + _TRIAL_BLOCK])).replace("\0", mark))


def _load_config(path: str, command: str) -> dict:
    """The ``key = value`` lines of ``path``, each key one of ``command``'s options."""
    keys = CONFIG_TYPES.keys() & {*_COMMON_OPTIONS, *_COMMANDS[command][1]}
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
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
        try:
            values[key] = _READ_N[command](val, repr(key)) if key == "n" else _number(val, repr(key), CONFIG_TYPES[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _merge(args: argparse.Namespace) -> dict:
    """Flags override config-file values, which override built-in defaults."""
    merged = _load_config(args.config, args.command) if args.config else {}
    for key in CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _READ_N[args.command](flag) if key == "n" else flag
    for key in _DEFAULTS.keys() & _COMMANDS[args.command][1].keys():
        merged.setdefault(key, _DEFAULTS[key])
    if merged.get("format", "csv") not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {merged['format']!r}")
    for key in sorted(k for k in merged if CONFIG_TYPES[k] is float):
        if not math.isfinite(merged[key]):
            raise ValueError(f"{key} must be finite, got {merged[key]!r}")
    return merged


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(map(_flag, missing))}")


def _params_from(cfg: dict):
    _require(cfg, "r_t", "rho_t", "rho_a", "nu")
    return validate_params(cfg["r_t"], cfg["rho_t"], cfg["rho_a"], cfg["nu"])


def _number(text: str, name: str = "--n", typ: type = int):
    """``text`` read as ``typ``.  Python's message for text that does not parse
    names no option, so the error names ``name``: a config key, or by default
    ``--n``, the only flag whose numbers cli reads itself."""
    try:
        return typ(text)
    except ValueError:
        raise ValueError(f"invalid {typ.__name__} value for {name}: {text!r}") from None


def _parse_horizons(text: str, name: str = "--n") -> list[int]:
    horizons = [_number(part, name) for part in text.split(",") if part.strip()]
    if not horizons:
        raise ValueError(f"horizons must list at least one integer, got {text!r}")
    return horizons


# How each command that takes ``n`` reads it, from its flag or a config line.
_READ_N = {"simulate": _number, "verify": _number, "analytic": _parse_horizons, "sweep": _parse_horizons}


def _parse_grid(spec: str) -> tuple[str, float, float, int]:
    from .analytics import PARAM_NAMES

    name, _, rng = spec.partition("=")
    name = name.strip()
    if name not in PARAM_NAMES:
        raise ValueError(f"grid parameter must be one of {PARAM_NAMES}, got {name!r}")
    try:
        lo, hi, steps = (typ(part) for typ, part in zip((float, float, int), rng.split(":"), strict=True))
    except ValueError:
        raise ValueError(f"grid spec must look like name=lo:hi:steps, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)) or steps < 1 or hi < lo:
        raise ValueError(f"bad grid range in {spec!r}")
    return name, lo, hi, steps


def _grid_axis(name: str, lo: float, hi: float, steps: int) -> tuple[str, list[float]]:
    if steps == 1:
        return name, [lo]
    return name, [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _summary_rows(stats: analytics.PrefixStats, p: float, asym: float):
    """The summary's rows, made ``_TRIAL_BLOCK`` prefixes at a time."""
    from . import analytics

    for start in range(0, len(stats.n), _TRIAL_BLOCK):
        cols = [c[start:start + _TRIAL_BLOCK] for c in (stats.n, stats.mean_pct, stats.ci_lo, stats.ci_hi)]
        yield from zip(*cols, analytics.expected_percentage(cols[0], p), repeat(asym))


def cmd_simulate(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    n, trials, seed = cfg["n"], cfg["trials"], cfg["seed"]
    if n < 1 or trials < 1:
        raise ValueError("--n and --trials must be >= 1")
    if n * trials > MAX_SIM_GAMES:
        raise ValueError(f"simulation asks for {n * trials} games, more than the limit of {MAX_SIM_GAMES}")
    from . import analytics, engine

    records = [engine.run_session(params, n, seed + t) for t in range(trials)]
    stats = analytics.aggregate_sessions(records)
    p = analytics.p_star(params)
    asym = analytics.asymptotic_percentage(p)

    out = Path(cfg["out"])
    fmt = cfg["format"]
    _write_rows(out, ["N", "mean_pct", "ci_lo", "ci_hi", "analytic_pct", "asymptotic_pct"],
                _summary_rows(stats, p, asym), fmt, template=_SUMMARY_ROW[fmt])

    _write_trials(out.with_name(out.stem + "_trials" + out.suffix), stats.pct, fmt)
    return 0


def cmd_analytic(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    from . import analytics

    p = analytics.p_star(params)
    rows = [(h, analytics.expected_resets(h, p), analytics.expected_percentage(h, p)) for h in cfg["n"]]
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
    from . import analytics

    fixed_names = [p for p in analytics.PARAM_NAMES if p not in (outer[0], inner[0])]
    if len(fixed_names) != 2:
        raise ValueError("grid parameters must be two distinct names")
    for name in (outer[0], inner[0]):
        if name in cfg:
            raise ValueError(f"{name} is gridded: give it by --grid alone, not by {_flag(name)} or a config line")
    _require(cfg, *fixed_names)
    fixed = {name: cfg[name] for name in fixed_names}
    horizons = cfg.get("n", [20])

    rows = analytics.sweep(outer, inner, fixed, horizons)
    header = [outer[0], inner[0], "feasible", "theta_max", "p_star"]
    header += [f"pct_n{h}" for h in horizons] + ["pct_inf"]
    out_rows = []
    for row in rows:
        cells = [getattr(row, outer[0]), getattr(row, inner[0]), int(row.feasible), row.theta_max, row.p_star]
        if row.feasible:
            cells += [pct for _, pct in row.percentages]
        else:
            cells += [None] * (len(horizons) + 1)
        out_rows.append(tuple(cells))
    _write_rows(Path(cfg["out"]), header, out_rows, cfg["format"])
    return 0


def cmd_verify(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "n", "out")
    n = cfg["n"]
    if n > MAX_SIM_GAMES:
        raise ValueError(f"verify asks for {n} games, more than the limit of {MAX_SIM_GAMES}")
    from . import engine

    report = engine.verify_outcome_agreement(params, n, cfg["seed"])
    lines = [f"{name} = {_fmt(value)}" for name, value in zip(report._fields, report)]
    lines.append(f"verdict = {'agree' if report.all_agree else 'disagree'}")
    Path(cfg["out"]).write_text("\n".join(lines) + "\n")
    return 0 if report.all_agree else 1


def cmd_trace(cfg: dict) -> int:
    params = _params_from(cfg)
    _require(cfg, "theta_a", "out")
    theta_a = cfg["theta_a"]
    from . import engine

    angle = cfg.get("defender_angle")
    mirror = 1.0 if angle is None else engine._capture_side(angle, theta_a, math.pi)
    traj = engine.simulate_kinematic(angle, theta_a, params)
    rows = traj.sample(cfg.get("dt", 1e-4 * params.tsr_radius))

    time = strategy._surface(params).time
    polyline = []
    for i in range(257):
        cand = strategy.engagement_candidate(time(i, 256), params)
        world = engine.to_world(cand.x_d_eng, theta_a, mirror)
        polyline.append(f"{world.real:.9g}:{world.imag:.9g}")
    end = traj.end
    meta = {
        "capture_circle_radius": _fmt(strategy.capture_circle_radius(params)),
        "terminal": "capture" if traj.captured else "breach",
        "terminal_x": _fmt(end.real),
        "terminal_y": _fmt(end.imag),
        "engagement_surface": " ".join(polyline),
    }
    _write_rows(Path(cfg["out"]), ["t", "ax", "ay", "dx", "dy", "phase"], rows, cfg["format"], meta=meta,
                template=_TRACE_ROW[cfg["format"]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perimdef",
        description="Sequential perimeter-defense game simulator and analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for key, (typ, text) in {**_COMMON_OPTIONS, **own}.items():
            p.add_argument(_flag(key), type=typ, help=text, **_OPTION_SETTINGS.get(key, {}))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        # Looked up by name on each call: perfbench's tracer rebinds every cmd_* after import.
        command = globals()[f"cmd_{args.command}"]
        return command(cfg, args.grid) if args.command == "sweep" else command(cfg)
    except AssumptionViolated as exc:
        print(f"invalid parameters ({exc.which} condition): {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv: Optional[Sequence[str]] = None) -> int:
    """Run ``main`` as the process's command, freezing the import-time objects
    before it and every object still alive after it.

    Frozen objects sit in the permanent generation, which the collections at
    interpreter exit skip; the OS frees them anyway.  Each command imports
    ``engine`` or ``analytics`` inside ``main``, so the second freeze covers
    their objects as well.  Garbage the command
    creates is collected as before.  ``main`` itself does not freeze, since
    it also runs inside other processes.
    """
    gc.freeze()
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
