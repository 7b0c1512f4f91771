"""Traced run of one perimdef CLI op, for the benchmark's per-layer metrics.

    python3 perfbench/tracer.py SPANS_JSON OP_ID -- simulate --r-t 5 ...

with ``src`` on ``PYTHONPATH``.  Before calling ``perimdef.cli.main`` it puts a
wrapper around every public function of the modules ``geometry``,
``strategy``, ``engine``, ``analytics`` and ``cli``, under every name that
refers to it: a module that imports a function directly (``engine`` and
``analytics`` import ``capture_circle_solution``, ``engine`` imports
``breach_margin_point``) calls it through its own name, so that name is
wrapped too.  If any public function is left unwrapped the op exits 3.

Most wrappers record a span (name, start, end, parent) in memory.  Functions
called once per game or once per point of the engagement-time grid get a
counter only, since a timed span there would cost more than the work it
measures.  The spans, the call counts and a few work counts read from return
values are written to SPANS_JSON when the op ends; ``layer_metrics`` turns
them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MODULES = ("geometry", "strategy", "engine", "analytics", "cli")

COUNT_ONLY = frozenset({
    "engine.play_game", "engine.uniform_angle", "engine.wrap_angle",
    "strategy.capture_circle_radius", "strategy.capture_circle_solution",
    "strategy.engagement_theta", "strategy.theta_max_at", "geometry.clamp_unit",
})

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "engine.run_session.calls": ("count", "lower", "op_s and peak_rss_mb on simulate"),
    "engine.run_session.s": ("s", "lower", "op_s and peak_rss_mb on simulate"),
    "engine.run_session.games_per_s": ("1/s", "higher", "op_s and peak_rss_mb on simulate"),
    "analytics.expected_percentage.calls": ("count", "lower", "op_s on simulate; no change on sweep"),
    "analytics.expected_percentage.s": ("s", "lower", "op_s on simulate; no change on sweep"),
    "analytics.aggregate_sessions.s": ("s", "lower", "op_s on simulate"),
    "cli.cmd.self_s": ("s", "lower", "op_s on simulate"),
    "cli.output_bytes": ("bytes", "lower", "op_s on simulate"),
    "strategy.optimize_engagement.calls": ("count", "lower", "op_s on sweep; no change on simulate"),
    "strategy.optimize_engagement.s": ("s", "lower", "op_s on sweep; no change on simulate"),
    "strategy.capture_circle_solution.calls": ("count", "lower", "op_s on sweep"),
    "strategy.capture_circle_solution.hit_ratio": ("ratio", "higher", "op_s on sweep"),
    "analytics.sweep.self_s": ("s", "lower", "op_s on sweep"),
    "geometry.validate_params.calls": ("count", "lower", "op_s on sweep"),
    "cli.main.s": ("s", "lower", "op_s on every workload"),
    "trace.overhead_s": ("s", "lower", "none: traced op time minus untraced op_s"),
    "op.unaccounted_s": ("s", "lower",
                         "op_s on every workload: traced op time - setup_s - cli.main.s"),
}


def _games(work: dict, record) -> None:
    work["games"] += len(record.outcomes)


# Work counts read from return values, outside the program.
HOOKS = {"engine.run_session": _games}


class Tracer:
    """Spans and counts of one traced op, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: dict[str, list[int]] = {}
        self.work = {"games": 0}

    def span(self, name: str, fn):
        spans, stack, work, clock = self.spans, self.stack, self.work, time.perf_counter
        cell = self.calls.setdefault(name, [0])
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell[0] += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(work, result)
            return result

        return traced

    def count(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def doc(self, op_id: int, rc: int) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "op_id": op_id,
            "rc": rc,
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "calls": {name: cell[0] for name, cell in self.calls.items()},
            "work": self.work,
        }


def _is_perimdef_function(key: str, obj) -> bool:
    return (not key.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("perimdef."))


def install(tracer: Tracer, modules: list, package) -> list[str]:
    """Wrap every public function under every name bound to it; return names left unwrapped."""
    namespaces = {m.__name__: vars(m) for m in [*modules, package]}
    wrappers = {}
    for m in modules:
        for key, obj in vars(m).items():
            if _is_perimdef_function(key, obj) and id(obj) not in wrappers:
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                wrap = tracer.count if name in COUNT_ONLY else tracer.span
                wrappers[id(obj)] = wrap(name, obj)
    for ns in namespaces.values():
        for key, obj in list(ns.items()):
            if id(obj) in wrappers:
                ns[key] = wrappers[id(obj)]
    installed = {id(w) for w in wrappers.values()}
    return [f"{mod}.{key}" for mod, ns in namespaces.items() for key, obj in ns.items()
            if _is_perimdef_function(key, obj) and id(obj) not in installed]


def layer_metrics(doc: dict, command: str) -> dict[str, float]:
    """Per-layer metrics of one traced op (all but the two from untraced runs)."""
    spans, calls, work = doc["spans"], doc["calls"], doc["work"]
    total: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    lookups = calls.get("strategy.capture_circle_solution", 0)
    solves = calls.get("strategy.optimize_engagement", 0)
    metrics = {"cli.main.s": total["cli.main"], "cli.cmd.self_s": self_s[f"cli.cmd_{command}"]}
    for name in ("engine.run_session", "analytics.expected_percentage",
                 "strategy.optimize_engagement"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.s"] = total[name]
    metrics.update({
        "engine.run_session.games_per_s": rate(work["games"], total["engine.run_session"]),
        "analytics.aggregate_sessions.s": total["analytics.aggregate_sessions"],
        "strategy.capture_circle_solution.calls": lookups,
        "strategy.capture_circle_solution.hit_ratio": 1.0 - solves / lookups if lookups else 0.0,
        "analytics.sweep.self_s": self_s["analytics.sweep"],
        "geometry.validate_params.calls": calls.get("geometry.validate_params", 0),
    })
    return metrics


def span_counts(doc: dict) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for name, *_ in doc["spans"]:
        counts[name] += 1
    return counts


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON OP_ID -- <perimdef cli args>", file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]

    import perimdef
    from perimdef import analytics, cli, engine, geometry, strategy

    tracer = Tracer()
    unwrapped = install(tracer, [geometry, strategy, engine, analytics, cli], perimdef)
    if unwrapped:
        print(f"tracer: public functions left unwrapped: {', '.join(unwrapped)}", file=sys.stderr)
        return 3
    rc = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.doc(op_id, rc), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
