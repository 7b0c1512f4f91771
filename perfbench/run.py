"""End-to-end benchmark of the perimdef command line.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is ``src``.
Workloads, and why each was chosen, are in ``checks.WORKLOADS``.

Each op is one ``python -m perimdef.cli ...`` process, as a user runs it: a
closed loop with one client, so at most this process and one child run at a
time.  An op is timed from spawn to exit, its peak RSS comes from the
``wait4`` rusage, and its files are checked after it exits, outside the timed
region.  Every op in a run uses the run's seed, so each also reruns the
untimed warm-up op and must write the same bytes.  The engagement solution
is cached per process, so every op pays the cold solve, as a user does.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports perimdef,
  sampled before the ops and once before each op;
* ``op_s``: 90th percentile of the wall time of one op, set-up included.  On
  a shared host the speed drifts by up to 1.8x in spells of seconds to
  minutes; the median and the mean follow the share of a run the fast
  spells take, while the slow level that sets the 90th percentile recurs
  within every run, so it moves far less from run to run;
* ``peak_rss_mb``: median peak RSS of an op's process;
* ``ok_frac``: share of ops that exit 0 and pass their checks.

``--trace 1`` alternates untraced ops with ops run under ``tracer.py`` and
prints the per-layer metrics listed in ``tracer.LAYER_METRICS``, each the
median over the traced ops.  The last line of standard output is the result
as JSON; the line before it records the environment.  Spans, samples (with
each op's CPU time, to tell a slower machine from time spent waiting) and the
environment are also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 2
OP_TIMEOUT_S = 60
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, int, os.struct_rusage]:
    """Run one process to completion; return (wall seconds, exit code, its rusage)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            status = 124 << 8  # report a timeout as exit code 124
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "dirty": dirty,
        "loadavg_before": os.getloadavg(),
    }


class Run:
    """One benchmark run: its workload, seed, work directory and samples."""

    def __init__(self, workload: checks.Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.op_dir = run_dir / "op"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.cli_args = workload.argv(seed)
        self.reference: dict[str, str] = {}
        self.reference_ok = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list] = {"setup_s": [], "op_s": [], "op_cpu_s": [],
                                         "peak_rss_mb": [], "traced_op_s": [], "layers": []}
        self.spans: list[dict] = []

    def _fresh_op_dir(self) -> None:
        shutil.rmtree(self.op_dir, ignore_errors=True)
        self.op_dir.mkdir(parents=True)

    def _outputs(self) -> checks.Outputs:
        return {f: (self.op_dir / f).read_text() for f in self.workload.files
                if (self.op_dir / f).is_file()}

    def setup(self) -> float:
        wall, rc, _ = spawn([sys.executable, "-c", "import perimdef"], ROOT, self.env,
                            self.run_dir / "setup.log")
        if rc != 0:
            raise RuntimeError(f"import perimdef failed with code {rc}; see {self.run_dir / 'setup.log'}")
        return wall

    def op(self, traced: bool = False) -> tuple[float, int, os.struct_rusage]:
        self._fresh_op_dir()
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(self.op_dir / "spans.json"),
                    str(len(self.spans)), "--", *self.cli_args]
        else:
            argv = [sys.executable, "-m", "perimdef.cli", *self.cli_args]
        return spawn(argv, self.op_dir, self.env, self.run_dir / "op.log")

    def _fail(self, what: str, fails: list[str]) -> None:
        for f in fails:
            self.failures.append(f"{what}: {f}")
            print(f"FAIL {self.workload.name} seed {self.seed} {what}: {f}", file=sys.stderr)

    def warm_up(self) -> None:
        """One untimed op: compiles bytecode, sets the reference bytes and runs the self-tests."""
        _, rc, _ = self.op()
        out = self._outputs()
        fails = checks.check_output(self.workload, out, rc, self.seed)
        self._fail("warm-up", fails)
        if not fails:
            self._fail("warm-up", checks.self_test(self.workload, out, self.seed))
        self.reference = checks.digests(out)
        self.reference_ok = not fails

    def timed_op(self, traced: bool) -> None:
        wall, rc, usage = self.op(traced)
        self.attempted += 1
        out = self._outputs()
        # Bytes identical to the checked warm-up output pass every check it passed.
        fails = checks.check_identical(out, self.reference)
        if fails or rc != 0 or not self.reference_ok:
            fails += checks.check_output(self.workload, out, rc, self.seed)
        if traced:
            fails += self._traced(out)
            self.samples["traced_op_s"].append(wall)
        else:
            self.samples["op_s"].append(wall)
            self.samples["op_cpu_s"].append(usage.ru_utime + usage.ru_stime)
            self.samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        if rc != 0:
            fails.append("stderr: " + (self.run_dir / "op.log").read_text(errors="replace")[-500:])
        self.failed += bool(fails)
        self._fail(f"op {self.attempted}{' (traced)' if traced else ''}", fails)

    def _traced(self, out: checks.Outputs) -> list[str]:
        path = self.op_dir / "spans.json"
        if not path.is_file():
            return ["trace: the traced op wrote no spans"]
        doc = json.loads(path.read_text())
        self.spans.append(doc)
        fails = []
        try:
            expected = self.workload.expected_spans(out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"trace: cannot read expected span counts: {exc}"]
        counts = tracer.span_counts(doc)
        for name, want in expected.items():
            if counts.get(name, 0) != want:
                fails.append(f"trace_completeness: {counts.get(name, 0)} {name} spans, want {want}")
        layers = tracer.layer_metrics(doc, self.workload.name)
        layers["cli.output_bytes"] = sum(len(t.encode()) for t in out.values())
        self.samples["layers"].append(layers)
        return fails

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.samples["setup_s"]),
            "op_s": p90(self.samples["op_s"]),
            "peak_rss_mb": statistics.median(self.samples["peak_rss_mb"]),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        layers = self.samples["layers"]
        metrics = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
        traced = self.samples["traced_op_s"]
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(self.samples["op_s"]))
        # cli.main.s is a median over the traced ops, so it is set against theirs.
        metrics["op.unaccounted_s"] = (statistics.median(traced)
                                       - statistics.median(self.samples["setup_s"])
                                       - metrics["cli.main.s"])
        return metrics


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "perimdef" / "cli.py").is_file():
        print(f"error: no perimdef sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    layer_table = {name: spec[0] for name, spec in tracer.LAYER_METRICS.items()}
    if e2e_units != END_TO_END or layer_units != layer_table:
        print("error: BENCHMARK.json metrics differ from the benchmark's own tables", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    workload = checks.WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, args.seed, run_dir)
    env = environment()

    run.setup()  # compiles the package's bytecode before anything is timed
    run.samples["setup_s"] = [run.setup() for _ in range(SETUP_SAMPLES)]
    run.warm_up()
    deadline = time.perf_counter() + args.seconds
    while True:
        run.samples["setup_s"].append(run.setup())
        run.timed_op(traced=False)
        if args.trace:
            run.timed_op(traced=True)
        if time.perf_counter() >= deadline:
            break
    env["loadavg_after"] = os.getloadavg()
    if args.trace and not run.samples["layers"]:
        print("error: no traced op produced spans", file=sys.stderr)
        return 1

    values = run.per_layer() if args.trace else run.end_to_end()
    units = layer_units if args.trace else e2e_units
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {"args": vars(args), "cli_args": run.cli_args, "env": env, "samples": run.samples,
              "failures": run.failures, "result": result}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    if run.spans:
        (run_dir / "spans.json").write_text(json.dumps(run.spans))
    shutil.rmtree(run.op_dir, ignore_errors=True)
    print(json.dumps({"env": env, "ops": run.attempted}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
