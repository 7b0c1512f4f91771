"""The package namespace: every public name resolves to its module's object,
nothing is imported before it is asked for, and README's examples run."""

from __future__ import annotations

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

import perimdef
from conftest import run_fresh
from perimdef import analytics, cli, engine, geometry, strategy

# The public names, by the module that defines them.
PUBLIC = {
    geometry: ["ApolloniusCircle", "AssumptionViolated", "CircleClass", "GameParams", "apollonius",
               "assumption_clauses", "classify", "validate_params"],
    strategy: ["EngagementCandidate", "EngagementSolution", "capture_circle_radius", "capture_circle_solution",
               "engagement_candidate", "engagement_domain", "evasion_point", "guarded_arc", "optimize_engagement",
               "theta_max_at"],
    engine: ["AgreementReport", "SessionRecord", "Trajectory", "play_game", "run_session", "simulate_kinematic",
             "uniform_angle", "verify_outcome_agreement", "wrap_angle"],
    analytics: ["PrefixStats", "SweepRow", "aggregate_sessions", "asymptotic_percentage", "expected_percentage",
                "expected_resets", "markov_oracle", "p_star", "resets_tail_all", "sweep"],
}
MODULES = ["analytics", "cli", "engine", "geometry", "strategy"]
# The public names the package itself never reads: each is a test's oracle.
TEST_ONLY = ("apollonius", "classify", "guarded_arc", "markov_oracle", "play_game", "resets_tail_all",
             "theta_max_at", "uniform_angle")


def test_public_names_are_their_modules_objects():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 37
    assert sorted(perimdef.__all__) == names
    for module, module_names in PUBLIC.items():
        for name in module_names:
            assert getattr(perimdef, name) is getattr(module, name)
    assert set(names) | set(MODULES) <= set(dir(perimdef))
    star: dict = {}
    exec("from perimdef import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert vars(perimdef)["__version__"] == "0.1.0"


def test_every_public_name_is_read_in_the_package_or_is_a_test_oracle():
    """Each public name is read somewhere in the package's source, as a name
    or an attribute (strings and docstrings do not count), unless it is in
    ``TEST_ONLY``, whose names are read nowhere in it."""
    read = set()
    for path in Path(perimdef.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(perimdef.__all__) - read) == sorted(TEST_ONLY)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "numpy", "PARAM_NAMES", "tracer", "travel_pmf", "total_captures_pmf",
                 "sufficiency_holds"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(perimdef, name)
    assert not hasattr(perimdef, "no_such_name")
    with pytest.raises(ImportError):
        exec("from perimdef import no_such_name", {})


def test_names_and_modules_load_on_first_access(tmp_path):
    """After a bare import nothing is loaded; a name loads its module (and
    what that imports) and is then kept in the namespace, and each module
    resolves as an attribute."""
    script = """
import json, sys
import perimdef

def loaded():
    return sorted(m for m in sys.modules if m.startswith("perimdef."))

steps = {"import": loaded()}
run_session = perimdef.run_session
steps["name"] = [loaded(), vars(perimdef).get("run_session") is run_session,
                 run_session is sys.modules["perimdef.engine"].run_session]
steps["modules"] = [getattr(perimdef, m) is sys.modules["perimdef." + m] for m in %r]
print(json.dumps(steps))
""" % (MODULES,)
    assert json.loads(run_fresh(script, tmp_path)) == {
        "import": [],
        "name": [["perimdef.engine", "perimdef.geometry", "perimdef.strategy"], True, True],
        "modules": [True] * len(MODULES),
    }


def test_the_package_runs_without_numpy(tmp_path):
    """With numpy unimportable, in a fresh interpreter, the breach-count tails,
    the DP oracle and a small sweep return their values, and each of the five
    commands exits 0."""
    script = """
import json, sys
sys.modules["numpy"] = None
from perimdef import analytics
from perimdef.cli import main

rows = analytics.sweep(("rho_a", [0.5, 1.0, 2.0, 3.0]), ("rho_t", [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]),
                       {"r_t": 5.0, "nu": 0.75}, [20])
values = [analytics.resets_tail_all(20, 0.6), analytics.markov_oracle(20, 0.6),
          [pct for row in rows if row.feasible for _, pct in row.percentages]]
base = ["--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--nu", "0.8"]
codes = [main(argv) for argv in (
    ["analytic", *base, "--n", "1,20", "--out", "a.csv"],
    ["simulate", *base, "--n", "20", "--trials", "2", "--out", "m.csv"],
    ["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:3", "--grid", "rho_t=4:12:3", "--out", "s.csv"],
    ["verify", *base, "--n", "20", "--out", "v.txt"],
    ["trace", *base, "--theta-a", "0.6", "--defender-angle", "1.1", "--dt", "1e-2", "--out", "t.csv"],
)]
print(json.dumps({"lengths": [len(v) for v in values], "types": sorted({type(x).__name__ for v in values for x in v}),
                  "codes": codes, "numpy": sys.modules["numpy"]}))
"""
    assert json.loads(run_fresh(script, tmp_path)) == {
        "lengths": [21, 11, 34], "types": ["float"], "codes": [0] * 5, "numpy": None,
    }


def test_readme_example_runs(tmp_path):
    """README's ``python`` block runs in a fresh interpreter and exits 0, so the
    documented API cannot drift from the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    run_fresh(example, tmp_path)


def test_readme_commands_run(tmp_path, monkeypatch):
    """Each ``perimdef`` line of README's command-line block, its ``\\``
    continuations joined, runs as written: exit 0 and its ``--out`` file written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("perimdef ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == 0, line
        assert (tmp_path / argv[argv.index("--out") + 1]).exists(), line
