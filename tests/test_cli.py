"""Command-line interface: schemas, determinism, exit codes, config handling."""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from conftest import fresh_env, run_fresh
from perimdef import analytics, engine, strategy
from perimdef.cli import (
    _TRIAL_BLOCK,
    CONFIG_TYPES,
    MAX_GRID_POINTS,
    MAX_SIM_GAMES,
    _write_rows,
    build_parser,
    entry,
    main,
)
from perimdef.engine import MAX_TRACE_SAMPLES
from perimdef.geometry import validate_params

BASE = ["--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--nu", "0.8"]
# theta_max saturates at pi here, so the engagement time is the plateau time
# chosen by the approach audit.  Every simulated game is then a capture; the
# trace of a capture-bound game also pins the audited phi.
PLATEAU = ["--r-t", "5", "--rho-t", "10", "--rho-a", "0.5", "--nu", "0.5"]
GRID_END = ["--r-t", "1e-150", "--rho-t", "6.4417936780088024e-139", "--rho-a", "7.433387501137239e-147",
            "--nu", "0.999999980724654"]
# The sha256 of every file a command writes, pinned so that a refactor of the
# engine, the aggregation or the writers keeps every byte.  Each case is an
# argv, run in an empty directory, and the digest of each file it leaves there.
PINNED_OUTPUTS = {
    "simulate-csv": (["simulate", *BASE, "--n", "40", "--trials", "5", "--seed", "9", "--out", "sim.csv"], {
        "sim.csv": "e23f64c0e917967927298d2c5062b1afd893f93133f97944fd3531a44f8cd761",
        "sim_trials.csv": "c8cc8e2a7f0aa1d393b2bdf5b51ceefd0db318a9ce52e57842f9522660f3c03d",
    }),
    "simulate-jsonl": (["simulate", *BASE, "--n", "40", "--trials", "5", "--seed", "9", "--format", "jsonl",
                        "--out", "sim.jsonl"], {
        "sim.jsonl": "da286e9dd5949e96f08b0311a916a0e978abba5a10401d06799a6c282104b278",
        "sim_trials.jsonl": "02b35e1eda1573553fb5f4c9a1420b87c234831f5d70d9c51be57840aa184fa7",
    }),
    # simulate at the benchmark's shape (200 sessions of 500 arrivals) and as a
    # few long sessions, each over several blocks of hashed arrivals and more
    # than one _TRIAL_BLOCK of prefixes
    "simulate-500x200-csv": (["simulate", *BASE, "--n", "500", "--trials", "200", "--seed", "1", "--format", "csv",
                              "--out", "sim.csv"], {
        "sim.csv": "0a3127e0a732b47c7d01c984d1fb02c3a65ad19a7b4e9dc62c25c820e75d8d04",
        "sim_trials.csv": "258e88ee03afcec243c06e8d1a04602dc43f8e91d41238dbc0e024bceceb01a0",
    }),
    "simulate-500x200-jsonl": (["simulate", *BASE, "--n", "500", "--trials", "200", "--seed", "1", "--format", "jsonl",
                                "--out", "sim.jsonl"], {
        "sim.jsonl": "92669f54cfbfbe84b33a736d3b2588d20836f5319a19603fa84cffd2f835ceb3",
        "sim_trials.jsonl": "b6bae0b69762f739c449fd0bdfbcbb8dea268b0d64201a0ffa26add13ace411c",
    }),
    "simulate-20000x3-csv": (["simulate", *BASE, "--n", "20000", "--trials", "3", "--seed", "-7", "--format", "csv",
                              "--out", "sim.csv"], {
        "sim.csv": "27db3790dff8820a2fe2f5b35bebdf5da71adb67978055219d7b398c40c2a326",
        "sim_trials.csv": "2644826350f3d1ed9cdb751d68d0da44741f8639e190896dc7f299c916e0d44c",
    }),
    "simulate-20000x3-jsonl": (["simulate", *BASE, "--n", "20000", "--trials", "3", "--seed", "-7", "--format", "jsonl",
                                "--out", "sim.jsonl"], {
        "sim.jsonl": "04fed6bcc9b52baf89b227dcc7e11ae950b1b569a0505ddbbe62905259e16d2f",
        "sim_trials.jsonl": "2aaf198159f926b675952ba6dc4f619bac5ff65c8ccec8e71cfd9ff3dbdb8678",
    }),
    "simulate-plateau-csv": (["simulate", *PLATEAU, "--n", "40", "--trials", "5", "--seed", "9", "--out", "sim.csv"], {
        "sim.csv": "c8b27531b7e1f4a245aa1ea3682a1e094057a903f720ce374268680778d88bf5",
        "sim_trials.csv": "0341e40f3a7e56b607fded6ec1e1bbfbacfe09703403fb420c082975ffc472fc",
    }),
    # one row per horizon given, a repeated one included
    "analytic-csv": (["analytic", *BASE, "--n", "1,20,20,200", "--out", "analytic.csv"], {
        "analytic.csv": "1686849ef645ba77bba09acf720d6b708d2a06c972a8e9d51c967673c857e888",
    }),
    "analytic-jsonl": (["analytic", *BASE, "--n", "1,20,20,200", "--format", "jsonl", "--out", "analytic.jsonl"], {
        "analytic.jsonl": "5a4f6db0bf3e762dc34ba4106df479f2d0a4a67e2ff73e26723e4f912da21815",
    }),
    "sweep-csv": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:2:3", "--grid", "rho_t=6:12:4",
                   "--n", "20,100", "--out", "sweep.csv"], {
        "sweep.csv": "8f76fd9a0baaa3ce9c6fe652f8880268c9d5fba628c7154697b44e572e308907",
    }),
    # the paper's 15 x 25 annulus sweep, whose 242 feasible points are each one
    # cold engagement solve
    "sweep-paper-csv": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.2:3:15", "--grid", "rho_t=4:16:25",
                         "--n", "20,100", "--out", "paper_sweep.csv"], {
        "paper_sweep.csv": "beb11dfc95f2d94b887c2f998e3817ea080d363487388fd460ffd8428fb1051b",
    }),
    # the benchmark's sweep grid shifted by seeds 1 and 2, where over half the
    # feasible points saturate at pi
    "sweep-shifted-seed1-csv": (["sweep", "--r-t", "5.0", "--nu", "0.75",
                                 "--grid", "rho_a=0.22687284882248027:3.0268728488224803:15",
                                 "--grid", "rho_t=4.0671821220562006:16.067182122056202:25",
                                 "--n", "20,100", "--out", "sweep.csv"], {
        "sweep.csv": "6ebb67b756fd7a61d7da8111297b0b39ef7d1b0f5e0df9c0fa8f739aa97de98d",
    }),
    "sweep-shifted-seed2-csv": (["sweep", "--r-t", "5.0", "--nu", "0.75",
                                 "--grid", "rho_a=0.39120685437784986:3.19120685437785:15",
                                 "--grid", "rho_t=4.478017135944625:16.478017135944626:25",
                                 "--n", "20,100", "--out", "sweep.csv"], {
        "sweep.csv": "d81e754f8047a9dc4c9857ec212b76b34dd916936acdfa9d7b09a1a22455846b",
    }),
    # a saturated game at nu = 1 - 1.9e-8 near the small end of LENGTH_RANGE,
    # where tau_min + span rounds past tau_max far enough that the tangency
    # check there fails: the grid's last time must be tau_max itself
    "analytic-grid-end-csv": (["analytic", *GRID_END, "--n", "1,20,200", "--out", "analytic.csv"], {
        "analytic.csv": "8db7ae246071a079c7c19cecc561dd6f4a9c6a404a12150bade54383bd9782e5",
    }),
    "sweep-grid-end-csv": (["sweep", "--r-t", "1e-150", "--nu", "0.999999980724654",
                            "--grid", "rho_a=7.433387501137239e-147:7.433387501137239e-147:1",
                            "--grid", "rho_t=6.4417936780088024e-139:6.4417936780088024e-139:1",
                            "--n", "20,100", "--out", "sweep.csv"], {
        "sweep.csv": "775bda73bfce67b2afa24b78d486d80ef268235a771aa997ef287580f53f2b6f",
    }),
    "verify": (["verify", "--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--nu", "0.8",
                "--n", "500", "--seed", "1", "--out", "verify.txt"], {
        "verify.txt": "2e8a4044e6a7b201167cf904ae2fc03ef48a22db97a35f46dfed17151e6ec38c",
    }),
    "verify-plateau": (["verify", "--r-t", "5", "--rho-t", "10", "--rho-a", "0.5", "--nu", "0.5",
                        "--n", "500", "--seed", "1", "--out", "verify.txt"], {
        "verify.txt": "c653babc6a88522ba89fe1f42e1ee49b54dae16d0eceba6c3fc78142f4d3ebca",
    }),
    # a plateau near the speed limit with a small intruder sensor
    "verify-plateau-nu095": (["verify", "--r-t", "2", "--rho-t", "30", "--rho-a", "0.05", "--nu", "0.95",
                              "--n", "500", "--out", "verify.txt"], {
        "verify.txt": "9176f0a5c482ba87efe0dee312fe13607bfa0ede6756db1df0f36af7af9c5080",
    }),
    # a capture-bound and a breach-bound game from the capture circle
    "trace-capture-csv": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1", "--dt", "1e-3",
                           "--out", "trace.csv"], {
        "trace.csv": "7a74d300c4be3c1efff7ba9592ebf9356339808217c7ca0e02563a0df1132a1b",
    }),
    "trace-capture-jsonl": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1", "--dt", "1e-3",
                             "--format", "jsonl", "--out", "trace.jsonl"], {
        "trace.jsonl": "c84b94cf82705675a95337a2afc424014df935e4a78352aca35fa3d75ee9dae0",
    }),
    "trace-breach-csv": (["trace", *BASE, "--theta-a", "3.0", "--defender-angle", "0.0", "--dt", "1e-3",
                          "--out", "trace.csv"], {
        "trace.csv": "9d7f6d0fe51a8b4c58f0cd7658c7f4f5f242656e31b4223871bc627318748c5f",
    }),
    "trace-breach-jsonl": (["trace", *BASE, "--theta-a", "3.0", "--defender-angle", "0.0", "--dt", "1e-3",
                            "--format", "jsonl", "--out", "trace.jsonl"], {
        "trace.jsonl": "9f4e82f57d72be24741d519ffceed0da5106f4c704edd7281cd4730aae9d6ed3",
    }),
    # a capture-bound game from the center (no --defender-angle)
    "trace-center-csv": (["trace", *BASE, "--theta-a", "-1.1", "--dt", "1e-3", "--format", "csv",
                          "--out", "trace.csv"], {
        "trace.csv": "0c8308b56c2d9a1e7cb11f6b9e8caa583c9712d3f6c128bd8fe1120b60bd9e95",
    }),
    "trace-center-jsonl": (["trace", *BASE, "--theta-a", "-1.1", "--dt", "1e-3", "--format", "jsonl",
                            "--out", "trace.jsonl"], {
        "trace.jsonl": "c6abf82cc227943e0c478f5c663c6488073402aee1ab1990406fde5e23705517",
    }),
    # an arrival at bearing 0 from the center: both players' y is exactly 0.0
    # on every row, and JSONL prints a zero's sign
    "trace-bearing-origin-jsonl": (["trace", *BASE, "--theta-a", "0", "--dt", "1e-2", "--format", "jsonl",
                                    "--out", "trace.jsonl"], {
        "trace.jsonl": "866abe547bef2bea481beee7898c860c0805107c6d09a4e9e1e8bf8f1efe4086",
    }),
    # a capture-bound game from the capture circle at bearing 0: a bearing of 0
    # is a defender on the circle, not one at the center
    "trace-bearing-zero-csv": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "0", "--dt", "1e-2",
                                "--format", "csv", "--out", "trace.csv"], {
        "trace.csv": "15219c9b61ebf4dffe884a238dd4fce16b9410fb8a552f3c9f5f2837ebee46b7",
    }),
    "trace-bearing-zero-jsonl": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "0", "--dt", "1e-2",
                                  "--format", "jsonl", "--out", "trace.jsonl"], {
        "trace.jsonl": "1f631bfbb5773928ad7f3e1457682e31eec7484f16c17bbaa34294c2d58f239f",
    }),
    "trace-plateau-csv": (["trace", *PLATEAU, "--theta-a", "0.6", "--defender-angle", "1.1", "--dt", "1e-2",
                           "--out", "trace.csv"], {
        "trace.csv": "70f73fffb3e8b3595363f44e79ac9d54480c2c8124644bf02ebbb6a121197a81",
    }),
}


@pytest.mark.parametrize("case", PINNED_OUTPUTS)
def test_outputs_pinned(tmp_path, monkeypatch, case):
    argv, pinned = PINNED_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()} == pinned


def test_analytic_bytes_do_not_depend_on_the_length_unit(tmp_path):
    """The baseline game in units of 2^-30 writes the unscaled game's bytes."""
    scaled = [repr(x * 2.0 ** -30) for x in (5.0, 10.0, 1.0)]
    argv = ["--r-t", scaled[0], "--rho-t", scaled[1], "--rho-a", scaled[2], "--nu", "0.8"]
    for name, game in (("unscaled.csv", BASE), ("scaled.csv", argv)):
        assert main(["analytic", *game, "--n", "1,20,200", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "scaled.csv").read_bytes() == (tmp_path / "unscaled.csv").read_bytes()


def _read(path):
    return path.read_text().splitlines()


def test_simulate_writes_summary_and_trials(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", *BASE, "--n", "30", "--trials", "3", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = _read(out)
    assert lines[0] == "N,mean_pct,ci_lo,ci_hi,analytic_pct,asymptotic_pct"
    assert len(lines) == 31
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 100.0
    assert float(first[4]) == 100.0

    trials = _read(tmp_path / "sim_trials.csv")
    assert trials[0] == "trial,N,pct"
    assert len(trials) == 1 + 3 * 30


def test_simulate_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", *BASE, "--n", "25", "--trials", "4", "--seed", "11"]
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a_trials.csv").read_bytes() == (tmp_path / "b_trials.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_simulate_trials_match_row_writer(tmp_path, params, fmt):
    out = tmp_path / f"sim.{fmt}"
    assert main(["simulate", *BASE, "--n", "37", "--trials", "6", "--seed", "-4",
                 "--format", fmt, "--out", str(out)]) == 0
    records = [engine.run_session(params, 37, -4 + t) for t in range(6)]
    pct = analytics.aggregate_sessions(records).pct
    rows = [(t, i, v) for t, row in enumerate(pct) for i, v in enumerate(row, start=1)]
    oracle = tmp_path / f"oracle.{fmt}"
    _write_rows(oracle, ["trial", "N", "pct"], rows, fmt)
    assert (tmp_path / f"sim_trials.{fmt}").read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("n, trials", [(1, 1), (1, 4), (5, 1), (_TRIAL_BLOCK + 1, 2)])
def test_simulate_edge_shapes_match_row_writer(tmp_path, params, n, trials, fmt):
    """The row templates write what the cell-by-cell writer writes, at the
    edges of the trials writer's per-file templates: one row per trial, a
    single trial, and a session one row longer than a block."""
    out = tmp_path / f"sim.{fmt}"
    assert main(["simulate", *BASE, "--n", str(n), "--trials", str(trials), "--seed", "11",
                 "--format", fmt, "--out", str(out)]) == 0
    stats = analytics.aggregate_sessions([engine.run_session(params, n, 11 + t) for t in range(trials)])
    p = analytics.p_star(params)
    summary = [(i, stats.mean_pct[i - 1], stats.ci_lo[i - 1], stats.ci_hi[i - 1],
                analytics.expected_percentage(i, p), analytics.asymptotic_percentage(p))
               for i in range(1, n + 1)]
    oracle = tmp_path / f"oracle.{fmt}"
    _write_rows(oracle, ["N", "mean_pct", "ci_lo", "ci_hi", "analytic_pct", "asymptotic_pct"], summary, fmt)
    assert out.read_bytes() == oracle.read_bytes()
    rows = [(t, i, v) for t, row in enumerate(stats.pct) for i, v in enumerate(row, start=1)]
    _write_rows(oracle, ["trial", "N", "pct"], rows, fmt)
    assert (tmp_path / f"sim_trials.{fmt}").read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("n, trials", [(MAX_SIM_GAMES + 1, 1), (MAX_SIM_GAMES // 4 + 1, 4)])
def test_simulate_rejects_oversized_run(tmp_path, capsys, monkeypatch, n, trials):
    def no_session(*args):
        raise AssertionError("a session was played")

    monkeypatch.setattr(engine, "run_session", no_session)
    out = tmp_path / "sim.csv"
    code = main(["simulate", *BASE, "--n", str(n), "--trials", str(trials), "--out", str(out)])
    assert code == 2
    assert str(MAX_SIM_GAMES) in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_its_summary_in_blocks(tmp_path):
    """50,000 prefixes over four blocks; whole-column lists built before writing peaked at 11.3 MB."""
    tracemalloc.start()
    try:
        code = main(["simulate", *BASE, "--n", "50000", "--trials", "1",
                     "--out", str(tmp_path / "sim.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8_000_000


# Invocations that exit 2 and write no file, each with the fragments its
# message must hold; a config file named in an argv is one of CONFIG_FILES.
CONFIG_FILES = {
    "empty_nu.cfg": "nu =\n", "fractional_seed.cfg": "seed = 1.5\n", "empty_n.cfg": "n =\n",
    "format_xml.cfg": "format = xml\n", "dt_0.cfg": "dt = 0\n", "dt_minus_1.cfg": "dt = -1\n",
    "dt_inf.cfg": "dt = inf\n", "defender_angle_nan.cfg": "defender_angle = nan\n",
    "theta_a_nan.cfg": "theta_a = nan\n", "rho_a_inf.cfg": "rho_a = inf\n",
    # each with a key that no command, or not the running one, takes
    "unknown_warp_factor.cfg": "r_t = 5\nwarp_factor = 9\n", "unknown_theta_a.cfg": "r_t = 5\ntheta_a = 0.3\n",
    "unknown_trials.cfg": "r_t = 5\ntrials = 5\n", "unknown_dt.cfg": "r_t = 5\ndt = 1e-3\n",
    "unknown_n.cfg": "r_t = 5\nn = 5\n",
    "n15.cfg": "n = 1.5\n", "nx.cfg": "n = 5,x\n", "no_equals.cfg": "r_t 5\n",
    # an option that the running command does not read, or a gridded parameter
    "seed_3.cfg": "seed = 3\n", "format_jsonl.cfg": "format = jsonl\n", "rho_t_12.cfg": "rho_t = 12\n",
}
REFUSED = {
    "invalid-params": (["simulate", "--r-t", "5", "--rho-t", "2", "--rho-a", "1", "--nu", "0.8", "--n", "5",
                        "--out", "x.csv"], "second"),
    "missing-nu": (["analytic", "--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--out", "x.csv"], "--nu"),
    "config-empty-nu": (["analytic", "--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--n", "5",
                         "--config", "empty_nu.cfg", "--out", "x.csv"],
                        "empty_nu.cfg:1: invalid float value for 'nu': ''"),
    "config-fractional-seed": (["simulate", *BASE, "--n", "5", "--config", "fractional_seed.cfg", "--out", "x.csv"],
                               "fractional_seed.cfg:1: invalid int value for 'seed': '1.5'"),
    # valid params with rho_t / rho_a = 1e7 at nu = 0.5, whose engagement
    # window rounding spoils, are refused with a message naming them
    "analytic-inconsistent-window": (["analytic", "--r-t", "1", "--rho-t", "1e7", "--rho-a", "1", "--nu", "0.5",
                                      "--n", "20", "--out", "x.csv"],
                                     "engagement window endpoints inconsistent", "rho_t=10000000.0"),
    "sweep-inconsistent-window": (["sweep", "--r-t", "1", "--nu", "0.5", "--grid", "rho_a=1:1:1",
                                   "--grid", "rho_t=10:1e7:2", "--out", "x.csv"],
                                  "engagement window endpoints inconsistent", "rho_t=10000000.0"),
    "analytic-horizon-past-float": (["analytic", *BASE, "--n", "20,1" + "0" * 400, "--out", "x.csv"],
                                    "no larger than a float"),
    "sweep-horizon-past-float": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2",
                                  "--grid", "rho_t=4:12:2", "--n", "20,1" + "0" * 400, "--out", "x.csv"],
                                 "no larger than a float"),
    # a fixed nu outside (0, 1) is refused as a fixed length beyond LENGTH_RANGE is
    "sweep-nu-1.5": (["sweep", "--r-t", "5", "--nu", "1.5", "--grid", "rho_a=0.2:3:2", "--grid", "rho_t=4:16:2",
                      "--out", "sweep.csv"], "invalid parameters (speed condition): speed ratio nu=1.5"),
    "sweep-nu-0": (["sweep", "--r-t", "5", "--nu", "0", "--grid", "rho_a=0.2:3:2", "--grid", "rho_t=4:16:2",
                    "--out", "sweep.csv"], "invalid parameters (speed condition): speed ratio nu=0.0"),
    "sweep-nu-1": (["sweep", "--r-t", "5", "--nu", "1", "--grid", "rho_a=0.2:3:2", "--grid", "rho_t=4:16:2",
                    "--out", "sweep.csv"], "invalid parameters (speed condition): speed ratio nu=1.0"),
    "sweep-one-grid": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2", "--out", "s.csv"],
                       "two --grid"),
    "sweep-grid-1e8-points": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0:1:100000000",
                               "--grid", "rho_t=4:12:2", "--out", "s.csv"], str(MAX_GRID_POINTS)),
    "sweep-grid-1001x1000-points": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0:1:1001",
                                     "--grid", "rho_t=4:12:1000", "--out", "s.csv"], str(MAX_GRID_POINTS)),
    "sweep-grid-nan-bound": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=nan:1:3",
                              "--grid", "rho_t=4:12:2", "--out", "s.csv"], "bad grid range"),
    "sweep-grid-inf-bound": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.2:inf:3",
                              "--grid", "rho_t=4:12:2", "--out", "s.csv"], "bad grid range"),
    "sweep-grid-minus-inf-bound": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=-inf:1:3",
                                    "--grid", "rho_t=4:12:2", "--out", "s.csv"], "bad grid range"),
    "verify-0-games": (["verify", *BASE, "--n", "0", "--out", "verify.txt"], "n_games"),
    "verify-minus-3-games": (["verify", *BASE, "--n", "-3", "--out", "verify.txt"], "n_games"),
    "simulate-0-trials": (["simulate", *BASE, "--n", "5", "--trials", "0", "--out", "x.csv"],
                          "--n and --trials must be >= 1"),
    # a number that does not parse names its option or its grid spec, or its
    # config file, line and key
    "analytic-fractional-n": (["analytic", *BASE, "--n", "1.5", "--out", "x.csv"], "invalid int value for --n: '1.5'"),
    "simulate-fractional-n": (["simulate", *BASE, "--n", "1.5", "--out", "x.csv"], "invalid int value for --n: '1.5'"),
    "verify-n-abc": (["verify", *BASE, "--n", "abc", "--out", "verify.txt"], "invalid int value for --n: 'abc'"),
    "config-simulate-fractional-n": (["simulate", *BASE, "--config", "n15.cfg", "--out", "x.csv"],
                                     "n15.cfg:1: invalid int value for 'n': '1.5'"),
    "config-analytic-letter-horizon": (["analytic", *BASE, "--config", "nx.cfg", "--out", "x.csv"],
                                       "nx.cfg:1: invalid int value for 'n': 'x'"),
    "sweep-grid-fractional-steps": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2.5",
                                     "--grid", "rho_t=4:12:2", "--out", "s.csv"],
                                    "grid spec must look like name=lo:hi:steps, got 'rho_a=0.5:3:2.5'"),
    "sweep-grid-letter-bound": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=a:3:2",
                                 "--grid", "rho_t=4:12:2", "--out", "s.csv"],
                                "grid spec must look like name=lo:hi:steps, got 'rho_a=a:3:2'"),
    "sweep-grid-two-fields": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3", "--grid", "rho_t=4:12:2",
                               "--out", "s.csv"], "grid spec must look like name=lo:hi:steps, got 'rho_a=0.5:3'"),
    "sweep-grid-unknown-parameter": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "warp=0:1:2",
                                      "--grid", "rho_t=4:12:2", "--out", "s.csv"],
                                     "grid parameter must be one of", "got 'warp'"),
    "sweep-grid-repeated-parameter": (["sweep", "--r-t", "5", "--rho-t", "10", "--nu", "0.75",
                                       "--grid", "rho_a=0.5:1:2", "--grid", "rho_a=1:2:2", "--out", "s.csv"],
                                      "grid parameters must be two distinct names"),
    # an empty horizon list is malformed, by flag or by config line; only an
    # absent one falls back to horizon 20
    "sweep-empty-horizons": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2",
                              "--grid", "rho_t=4:12:2", "--n", "", "--out", "e.csv"], "horizons"),
    "config-empty-horizons": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2",
                               "--grid", "rho_t=4:12:2", "--config", "empty_n.cfg", "--out", "e.csv"], "horizons"),
    # a repeated horizon gave the CSV two pct_n20 columns and each JSONL row one key
    "sweep-repeated-horizons-csv": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2",
                                     "--grid", "rho_t=4:12:2", "--n", "20,20", "--format", "csv", "--out", "s.csv"],
                                    "distinct"),
    "sweep-repeated-horizons-jsonl": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2",
                                       "--grid", "rho_t=4:12:2", "--n", "20,20", "--format", "jsonl",
                                       "--out", "s.jsonl"], "distinct"),
    "config-format-xml": (["analytic", *BASE, "--config", "format_xml.cfg", "--n", "5", "--out", "x.out"], "xml"),
    "config-line-without-equals": (["analytic", *BASE, "--n", "5", "--config", "no_equals.cfg", "--out", "x.csv"],
                                   "no_equals.cfg:1: expected key=value, got 'r_t 5'"),
    "config-unknown-key-analytic": (["analytic", *BASE, "--n", "5", "--config", "unknown_warp_factor.cfg",
                                     "--out", "x.csv"], "unknown config key 'warp_factor' for analytic"),
    "config-simulate-key-analytic": (["analytic", *BASE, "--n", "5", "--config", "unknown_trials.cfg",
                                      "--out", "x.csv"], "unknown config key 'trials' for analytic"),
    "config-trace-key-simulate": (["simulate", *BASE, "--n", "5", "--trials", "2", "--config", "unknown_theta_a.cfg",
                                   "--out", "x.csv"], "unknown config key 'theta_a' for simulate"),
    "config-trace-key-sweep": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:1:2",
                                "--grid", "rho_t=8:10:2", "--config", "unknown_dt.cfg", "--out", "x.csv"],
                               "unknown config key 'dt' for sweep"),
    "config-simulate-key-verify": (["verify", *BASE, "--n", "5", "--config", "unknown_trials.cfg", "--out", "x.csv"],
                                   "unknown config key 'trials' for verify"),
    "config-horizon-key-trace": (["trace", *BASE, "--theta-a", "0.6", "--config", "unknown_n.cfg", "--out", "x.csv"],
                                 "unknown config key 'n' for trace"),
    # a sample spacing or angle must be finite, and a spacing positive, by flag or by config line
    "trace-dt-0": (["trace", *BASE, "--theta-a", "0.6", "--dt", "0", "--out", "x.out"], "dt"),
    "config-trace-dt-0": (["trace", *BASE, "--theta-a", "0.6", "--config", "dt_0.cfg", "--out", "x.out"], "dt"),
    "trace-dt-minus-1": (["trace", *BASE, "--theta-a", "0.6", "--dt", "-1", "--out", "x.out"], "dt"),
    "config-trace-dt-minus-1": (["trace", *BASE, "--theta-a", "0.6", "--config", "dt_minus_1.cfg", "--out", "x.out"],
                                "dt"),
    "trace-dt-inf": (["trace", *BASE, "--theta-a", "0.6", "--dt", "inf", "--out", "x.out"], "dt"),
    "config-trace-dt-inf": (["trace", *BASE, "--theta-a", "0.6", "--config", "dt_inf.cfg", "--out", "x.out"], "dt"),
    "trace-defender-angle-nan": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "nan", "--out", "x.out"],
                                 "defender_angle"),
    "config-trace-defender-angle-nan": (["trace", *BASE, "--theta-a", "0.6", "--config", "defender_angle_nan.cfg",
                                         "--out", "x.out"], "defender_angle"),
    "trace-theta-a-nan": (["trace", *BASE, "--theta-a", "nan", "--out", "x.out"], "theta_a"),
    "config-trace-theta-a-nan": (["trace", *BASE, "--config", "theta_a_nan.cfg", "--out", "x.out"], "theta_a"),
    "analytic-rho-a-inf": (["analytic", *BASE, "--n", "5", "--rho-a", "inf", "--out", "x.out"], "rho_a"),
    # without BASE's --rho-a, which would override the config value
    "config-analytic-rho-a-inf": (["analytic", "--r-t", "5", "--rho-t", "10", "--nu", "0.8", "--n", "5",
                                   "--config", "rho_a_inf.cfg", "--out", "x.out"], "rho_a"),
    # a command takes only the options it reads: the closed forms and a single
    # trace draw nothing to seed, and verify writes a plain report.  A flag is
    # refused by argparse, which exits through SystemExit(2); a config key by
    # the key rule
    "analytic-seed": (["analytic", *BASE, "--n", "5", "--seed", "3", "--out", "x.csv"],
                      "unrecognized arguments: --seed 3"),
    "config-seed-analytic": (["analytic", *BASE, "--n", "5", "--config", "seed_3.cfg", "--out", "x.csv"],
                             "seed_3.cfg:1: unknown config key 'seed' for analytic"),
    "sweep-seed": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2", "--grid", "rho_t=4:12:2",
                    "--seed", "3", "--out", "s.csv"], "unrecognized arguments: --seed 3"),
    "config-seed-sweep": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:2", "--grid", "rho_t=4:12:2",
                           "--config", "seed_3.cfg", "--out", "s.csv"],
                          "seed_3.cfg:1: unknown config key 'seed' for sweep"),
    "trace-seed": (["trace", *BASE, "--theta-a", "0.6", "--seed", "3", "--out", "x.csv"],
                   "unrecognized arguments: --seed 3"),
    "config-seed-trace": (["trace", *BASE, "--theta-a", "0.6", "--config", "seed_3.cfg", "--out", "x.csv"],
                          "seed_3.cfg:1: unknown config key 'seed' for trace"),
    "verify-format-jsonl": (["verify", *BASE, "--n", "5", "--format", "jsonl", "--out", "verify.txt"],
                            "unrecognized arguments: --format jsonl"),
    "config-format-verify": (["verify", *BASE, "--n", "5", "--config", "format_jsonl.cfg", "--out", "verify.txt"],
                             "format_jsonl.cfg:1: unknown config key 'format' for verify"),
    # a gridded parameter's flag or config value would be dropped for the grid's
    "sweep-gridded-flag": (["sweep", "--r-t", "5", "--rho-a", "99", "--nu", "0.75", "--grid", "rho_a=0.5:3:3",
                            "--grid", "rho_t=4:12:2", "--out", "s.csv"], "rho_a is gridded", "--rho-a"),
    "config-sweep-gridded": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:3",
                              "--grid", "rho_t=4:12:2", "--config", "rho_t_12.cfg", "--out", "s.csv"],
                             "rho_t is gridded", "--rho-t"),
    # valid params whose engagement window is shut: at rho_t / rho_a = 2e20
    # both of its ends round to the same time
    "analytic-shut-window": (["analytic", "--r-t", "5", "--rho-t", "1e20", "--rho-a", "1", "--nu", "0.5",
                              "--n", "20", "--out", "x.csv"],
                             "no feasible engagement window", "[2e+20, 2e+20]"),
    # valid params at rho_t / rho_a = 1.7e8 whose tangency check fails by
    # rounding at the window's first time, which the plateau audit's search reads
    "simulate-not-tangent": (["simulate", "--r-t", "0.9672476155378407", "--rho-t", "243480605.77551273",
                              "--rho-a", "1.4445030338111837", "--nu", "0.833695549632016", "--n", "5",
                              "--trials", "1", "--out", "x.csv"],
                             "(tau=292049776.01426584, theta=0.0) is not a tangent configuration"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_invocations_exit_2(tmp_path, monkeypatch, capsys, case):
    argv, *fragments = REFUSED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert [f for f in fragments if f not in err] == []
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(CONFIG_FILES)


# Games with lengths at the ends of geometry.LENGTH_RANGE (rho_a at 1e-150;
# r_t and rho_t at 1e150), and the flag and value that put one of their
# lengths an ulp beyond that end.
LENGTH_ENDS = {
    "low": (["--r-t", "5e-150", "--rho-t", "1e-149", "--rho-a", "1e-150", "--nu", "0.8"],
            "--rho-a", "9.999999999999999e-151"),
    "high": (["--r-t", "1e150", "--rho-t", "1e150", "--rho-a", "1e149", "--nu", "0.5"],
             "--r-t", "1.0000000000000002e+150"),
}


@pytest.mark.parametrize("end", LENGTH_ENDS)
@pytest.mark.parametrize("command, extra", [
    ("analytic", ["--n", "20"]), ("simulate", ["--n", "20", "--trials", "2"]), ("verify", ["--n", "20"]),
    ("trace", ["--theta-a", "0.6", "--defender-angle", "1.1"]),
])
def test_lengths_at_the_range_ends_run_and_beyond_them_exit_2(tmp_path, capsys, command, extra, end):
    game, flag, beyond = LENGTH_ENDS[end]
    out = tmp_path / "x.out"
    code = main([command, *game, *extra, "--out", str(out)])
    if command == "verify":
        # every game agrees; the verdict also bounds the capture-point error by
        # an absolute length, engine.MAX_DISCREPANCY, which games at 1e150 exceed
        assert code in (0, 1) and "n_mismatches = 0" in out.read_text()
    else:
        assert code == 0
    out.unlink()
    i = game.index(flag)
    assert main([command, *game[:i + 1], beyond, *game[i + 2:], *extra, "--out", str(out)]) == 2
    assert f"{flag[2:].replace('-', '_')}={beyond} is outside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r_t, nu, grids, feasible, beyond", [
    ("5e-150", "0.8", ["rho_a=9.999999999999999e-151:1e-150:2", "rho_t=1e-149:1e-149:1"], ["0", "1"],
     "9.999999999999999e-151"),
    ("1e150", "0.5", ["rho_a=1e149:1e149:1", "rho_t=1e150:1.0000000000000002e+150:2"], ["1", "0"],
     "1.0000000000000002e+150"),
], ids=["low", "high"])
def test_sweep_lengths_beyond_the_range(tmp_path, capsys, r_t, nu, grids, feasible, beyond):
    """A grid point with a length beyond ``LENGTH_RANGE`` is an infeasible row
    next to a feasible one at the range's end; a fixed length beyond it exits 2."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--nu", nu, "--grid", grids[0], "--grid", grids[1], "--out", str(out)]
    assert main([*argv, "--r-t", r_t]) == 0
    assert [row.split(",")[2] for row in _read(out)[1:]] == feasible
    out.unlink()
    assert main([*argv, "--r-t", beyond]) == 2
    assert f"r_t={beyond} is outside" in capsys.readouterr().err
    assert not out.exists()


def test_cli_process_matches_in_process_main(tmp_path):
    """``python -m perimdef.cli`` runs through ``entry``: the same bytes and exit
    codes as ``main`` in process, which leaves the collector's state alone."""
    runs = {
        "simulate": ["simulate", *BASE, "--n", "30", "--trials", "3", "--out", "sim.csv"],
        "sweep": ["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:3", "--grid", "rho_t=4:12:3",
                  "--n", "20", "--out", "sweep.csv"],
        "invalid": ["simulate", "--r-t", "5", "--rho-t", "2", "--rho-a", "1", "--nu", "0.8", "--n", "5",
                    "--out", "x.csv"],
        "usage": ["simulate", *BASE, "--no-such-flag"],
    }
    env = fresh_env()
    procs = {}
    for name, argv in runs.items():
        (tmp_path / "spawned" / name).mkdir(parents=True)
        procs[name] = subprocess.Popen([sys.executable, "-m", "perimdef.cli", *argv], cwd=tmp_path / "spawned" / name,
                                       env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    codes = {name: proc.wait(timeout=60) for name, proc in procs.items()}
    assert codes == {"simulate": 0, "sweep": 0, "invalid": 2, "usage": 2}
    assert not (tmp_path / "spawned" / "invalid" / "x.csv").exists()

    frozen = gc.get_freeze_count()
    for name in ("simulate", "sweep"):
        spawned, here = tmp_path / "spawned" / name, tmp_path / "here" / name
        here.mkdir(parents=True)
        assert main([arg if not arg.endswith(".csv") else str(here / arg) for arg in runs[name]]) == 0
        assert sorted(f.name for f in spawned.iterdir()) == sorted(f.name for f in here.iterdir())
        for f in spawned.iterdir():
            assert f.read_bytes() == (here / f.name).read_bytes(), f.name
    assert gc.get_freeze_count() == frozen


# The perimdef modules each command loads, run through ``entry`` in its own
# fresh interpreter as the console script runs it.  No command loads any module
# of UNLOADED: numpy is a test dependency, dataclasses would bring inspect, and
# a CSV run writes no JSON.
UNLOADED = ("dataclasses", "inspect", "json", "numpy")
STATISTICS = ["perimdef.analytics", "perimdef.cli", "perimdef.geometry", "perimdef.strategy"]
REPLAY = ["perimdef.cli", "perimdef.engine", "perimdef.geometry", "perimdef.strategy"]
LOADED_MODULES = {
    "analytic": (["analytic", *BASE, "--n", "1,20", "--out", "a.csv"], STATISTICS),
    "sweep": (["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:3:3", "--grid", "rho_t=4:12:3",
               "--out", "s.csv"], STATISTICS),
    "simulate": (["simulate", *BASE, "--n", "20", "--trials", "2", "--out", "m.csv"],
                 sorted([*STATISTICS, "perimdef.engine"])),
    "verify": (["verify", *BASE, "--n", "20", "--out", "v.txt"], REPLAY),
    "trace": (["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1", "--dt", "1e-2", "--out", "t.csv"],
              REPLAY),
}
# Runs the argv it is given and prints the exit code and the loaded modules
# that it watches, importing none of them itself.
LOADED_SCRIPT = """
import sys
from perimdef.cli import entry
code = entry(sys.argv[1:])
print(repr((code, sorted(m for m in sys.modules if m.startswith("perimdef.") or m in %r))))
""" % (UNLOADED,)


@pytest.mark.parametrize("command", LOADED_MODULES)
def test_commands_load_only_their_modules(tmp_path, command):
    argv, modules = LOADED_MODULES[command]
    assert ast.literal_eval(run_fresh(LOADED_SCRIPT, tmp_path, *argv)) == (0, modules)


def test_entry_freezes_the_import_time_objects(tmp_path):
    assert gc.get_freeze_count() == 0
    try:
        assert entry(["analytic", *BASE, "--n", "20", "--out", str(tmp_path / "a.csv")]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert (tmp_path / "a.csv").read_text().startswith("N,expected_resets,percentage\n")


def test_entry_freezes_the_objects_the_command_leaves(monkeypatch):
    """The second freeze covers objects made inside ``main`` that outlive it,
    as those of the modules a command imports do."""
    left = []

    def command(argv):
        left.append(gc.get_freeze_count())
        left.append([[] for _ in range(1000)])
        return 0

    monkeypatch.setattr("perimdef.cli.main", command)
    try:
        assert entry([]) == 0
        assert gc.get_freeze_count() >= left[0] + 1000
    finally:
        gc.unfreeze()


def test_analytic_rows_match_library(tmp_path):
    out = tmp_path / "analytic.csv"
    assert main(["analytic", *BASE, "--n", "1,20,200", "--out", str(out)]) == 0
    lines = _read(out)
    assert lines[0] == "N,expected_resets,percentage"
    params = validate_params(5, 10, 1, 0.8)
    p = analytics.p_star(params)
    body = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in body] == ["1", "20", "200", "inf"]
    assert float(body[0][2]) == 100.0
    for row, n in zip(body[1:3], (20, 200)):
        assert float(row[1]) == pytest.approx(analytics.expected_resets(n, p), rel=1e-11)
        assert float(row[2]) == pytest.approx(analytics.expected_percentage(n, p), rel=1e-11)
    assert body[3][1] == ""
    assert float(body[3][2]) == pytest.approx(analytics.asymptotic_percentage(p), rel=1e-11)


def test_analytic_jsonl(tmp_path):
    out = tmp_path / "analytic.jsonl"
    assert main(["analytic", *BASE, "--n", "5", "--format", "jsonl",
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in _read(out)]
    assert rows[0]["N"] == 5
    assert rows[1]["N"] == "inf"


def test_sweep_schema_and_empty_cells(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--r-t", "5", "--nu", "0.75",
                 "--grid", "rho_a=0.5:3:2", "--grid", "rho_t=4:12:2",
                 "--n", "20,50", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    assert lines[0] == "rho_a,rho_t,feasible,theta_max,p_star,pct_n20,pct_n50,pct_inf"
    assert len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [c[2] for c in cells] == ["0", "1", "0", "0"]
    infeasible = cells[0]
    assert infeasible[3] == "" and infeasible[5] == "" and infeasible[7] == ""
    feasible = cells[1]
    assert float(feasible[5]) >= float(feasible[7])


def test_sweep_reads_horizons_from_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("r_t = 5\nnu = 0.75\nn = 20,100\n")
    grids = ["--grid", "rho_a=0.5:3:2", "--grid", "rho_t=4:12:2"]
    out_a = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfg), *grids, "--out", str(out_a)]) == 0
    assert _read(out_a)[0].endswith(",pct_n20,pct_n100,pct_inf")
    # the flag still overrides the config horizons
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), *grids, "--n", "7", "--out", str(out_b)]) == 0
    assert _read(out_b)[0].endswith(",pct_n7,pct_inf")


def test_verify_agrees_and_exits_zero(tmp_path):
    out = tmp_path / "verify.txt"
    code = main(["verify", *BASE, "--n", "25", "--seed", "3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "n_mismatches = 0" in text
    assert "verdict = agree" in text


def test_verify_reports_mismatches_and_exits_one(tmp_path, monkeypatch, params):
    """A replay whose intruder never senses the defender breaches every game:
    each capture the event level plays is a mismatch, and verify says so."""
    def unseen(p, v, r, length):
        return None if r == params.rho_a else first_entry(p, v, r, length)

    first_entry = engine.first_entry
    monkeypatch.setattr(engine, "first_entry", unseen)
    report = engine.verify_outcome_agreement(params, 40, 3)
    assert (report.n_compared, report.n_mismatches, report.all_agree) == (40, 28, False)
    assert engine.run_session(params, 40, 3).n_capture == 28
    out = tmp_path / "verify.txt"
    assert main(["verify", *BASE, "--n", "40", "--seed", "3", "--out", str(out)]) == 1
    lines = _read(out)
    assert "n_mismatches = 28" in lines and lines[-1] == "verdict = disagree"


@pytest.mark.parametrize("params", [("5", "10", "1", "0.85"), ("5", "14", "1", "0.9")])
def test_verify_agrees_at_high_speed_ratio(tmp_path, params):
    """A replay that ended captures short of the capture circle reported a false
    ``disagree`` here, with no mismatched verdict."""
    out = tmp_path / "verify.txt"
    flags = [f for pair in zip(["--r-t", "--rho-t", "--rho-a", "--nu"], params) for f in pair]
    assert main(["verify", *flags, "--n", "200", "--seed", "3", "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line in _read(out))
    r_cc = strategy.capture_circle_radius(validate_params(*map(float, params)))
    assert report["n_mismatches"] == "0"
    assert float(report["max_capture_point_error"]) <= 1e-6 * (1.0 + r_cc)
    assert report["verdict"] == "agree"


def test_trace_capture_bound(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    meta = [line for line in lines if line.startswith("#")]
    keys = {line.split("=", 1)[0].strip("# ") for line in meta}
    assert {"capture_circle_radius", "terminal", "engagement_surface"} <= keys
    radius_line = next(line for line in meta if "capture_circle_radius" in line)
    r_cc = float(radius_line.split("=")[1])
    assert r_cc == pytest.approx(85.0 / 9.0, rel=1e-11)
    terminal = next(line for line in meta if line.startswith("# terminal ="))
    assert terminal.endswith("capture")
    tx = float(next(l for l in meta if l.startswith("# terminal_x")).split("=")[1])
    ty = float(next(l for l in meta if l.startswith("# terminal_y")).split("=")[1])
    assert math.hypot(tx, ty) == pytest.approx(r_cc, abs=6e-3)
    header_i = lines.index("t,ax,ay,dx,dy,phase")
    first = lines[header_i + 1].split(",")
    assert float(first[0]) == 0.0
    assert first[5] == "partial"
    assert lines[-1].split(",")[5] == "full"


def test_trace_breach_bound_ends_on_target_rim(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["trace", *BASE, "--theta-a", "3.0", "--defender-angle", "0.0",
                 "--dt", "1e-3", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    meta = [line for line in lines if line.startswith("#")]
    assert next(l for l in meta if l.startswith("# terminal =")).endswith("breach")
    tx = float(next(l for l in meta if l.startswith("# terminal_x")).split("=")[1])
    ty = float(next(l for l in meta if l.startswith("# terminal_y")).split("=")[1])
    assert math.hypot(tx, ty) == pytest.approx(5.0, abs=0.8 * 1e-3 + 1e-9)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("theta_a, angle", [(0.6, 1.1), (3.0, 0.0)])
def test_trace_rows_match_row_writer(tmp_path, params, fmt, theta_a, angle):
    """The trace's row template writes the bytes that the cell-by-cell writer
    writes for the same samples."""
    out = tmp_path / f"trace.{fmt}"
    assert main(["trace", *BASE, "--theta-a", str(theta_a), "--defender-angle", str(angle),
                 "--dt", "1e-3", "--format", fmt, "--out", str(out)]) == 0
    traj = engine.simulate_kinematic(angle, theta_a, params)
    rows = list(traj.sample(1e-3))
    oracle = tmp_path / f"oracle.{fmt}"
    _write_rows(oracle, ["t", "ax", "ay", "dx", "dy", "phase"], rows, fmt)
    lines = out.read_bytes().splitlines(keepends=True)
    meta = 1 if fmt == "jsonl" else sum(line.startswith(b"# ") for line in lines)
    assert b"".join(lines[meta:]) == oracle.read_bytes()


@pytest.mark.parametrize("dt", ["1e-320", "1e-9"])
def test_trace_rejects_too_many_samples(tmp_path, capsys, monkeypatch, dt):
    """A sample spacing this small once raised OverflowError (1e-320) or asked
    for gigabytes of samples (1e-9); both are refused before any is built."""
    def no_sample(*args):
        raise AssertionError("a sample was built")

    monkeypatch.setattr(engine.Trajectory, "_samples", no_sample)
    out = tmp_path / "trace.csv"
    code = main(["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1",
                 "--dt", dt, "--out", str(out)])
    assert code == 2
    assert str(MAX_TRACE_SAMPLES) in capsys.readouterr().err
    assert not out.exists()


def test_trace_streams_its_samples(tmp_path):
    """84,478 rows; building them all before writing peaked at 42.7 MB."""
    out = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        code = main(["trace", *BASE, "--theta-a", "0.6", "--defender-angle", "1.1",
                     "--dt", "2e-4", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text(
        "# baseline parameters\n"
        "r_t = 5\nrho_t = 10\nrho_a = 1\nnu = 0.8\nn = 4\n"
    )
    out_a = tmp_path / "a.csv"
    assert main(["analytic", "--config", str(cfg), "--out", str(out_a)]) == 0
    # flag overrides the config horizon
    out_b = tmp_path / "b.csv"
    assert main(["analytic", "--config", str(cfg), "--n", "9", "--out", str(out_b)]) == 0
    assert _read(out_a)[1].split(",")[0] == "4"
    assert _read(out_b)[1].split(",")[0] == "9"


def test_config_types_match_parser():
    """Every option but --config, --grid and --help is a config key read as its flag's type."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest in ("config", "grid", "help"):
                continue
            assert action.dest in CONFIG_TYPES, (command, action.option_strings)
            assert (action.type or str) is CONFIG_TYPES[action.dest], (command, action.dest)


# Every action of each subparser, in order, as (option_strings, dest, type,
# choices, default, metavar, help, action class).  The --help text is not
# pinned: argparse heads its options section differently on 3.10 and 3.11.
_HELP_ACTION = (("-h", "--help"), "help", None, None, argparse.SUPPRESS, None, "show this help message and exit",
                "_HelpAction")
_COMMON_ACTIONS = [
    (("--config",), "config", None, None, None, None, "flat key=value config file; flags take precedence",
     "_StoreAction"),
    (("--r-t",), "r_t", float, None, None, None, "target radius", "_StoreAction"),
    (("--rho-t",), "rho_t", float, None, None, None, "sensing annulus width", "_StoreAction"),
    (("--rho-a",), "rho_a", float, None, None, None, "intruder sensing radius", "_StoreAction"),
    (("--nu",), "nu", float, None, None, None, "intruder/defender speed ratio, in (0, 1)", "_StoreAction"),
    (("--out",), "out", None, None, None, None, "output file path", "_StoreAction"),
]
_SEED_ACTION = (("--seed",), "seed", int, None, None, None, "base RNG seed (default 1)", "_StoreAction")
_FORMAT_ACTION = (("--format",), "format", None, ("csv", "jsonl"), None, None, "output format (default csv)",
                  "_StoreAction")
PINNED_PARSER_SHAPE = {
    "simulate": ("run seeded sessions and write mean/CI table vs analytics", [
        _SEED_ACTION,
        _FORMAT_ACTION,
        (("--n",), "n", None, None, None, None, "arrivals per session", "_StoreAction"),
        (("--trials",), "trials", int, None, None, None, "number of sessions (default 100)", "_StoreAction"),
    ]),
    "analytic": ("closed-form expected resets and capture percentage", [
        _FORMAT_ACTION,
        (("--n",), "n", None, None, None, None, "comma-separated horizons, e.g. 1,20,200", "_StoreAction"),
    ]),
    "sweep": ("two-parameter grid of capture statistics", [
        _FORMAT_ACTION,
        (("--grid",), "grid", None, None, [], "name=lo:hi:steps", "varied parameter; give exactly twice",
         "_AppendAction"),
        (("--n",), "n", None, None, None, None,
         "comma-separated horizons (default 20); the asymptote is always included", "_StoreAction"),
    ]),
    "verify": ("replay games kinematically and check verdict agreement", [
        _SEED_ACTION,
        (("--n",), "n", None, None, None, None, "number of games to replay", "_StoreAction"),
    ]),
    "trace": ("export one game's trajectory with plot metadata", [
        _FORMAT_ACTION,
        (("--theta-a",), "theta_a", float, None, None, None, "arrival bearing (rad)", "_StoreAction"),
        (("--defender-angle",), "defender_angle", float, None, None, None,
         "defender bearing on the capture circle; omit for the center", "_StoreAction"),
        (("--dt",), "dt", float, None, None, None, "sample spacing (default 1e-4 * (r_t + rho_t))", "_StoreAction"),
    ]),
}


def test_parser_shape_pinned():
    """The program name, description, commands in order, their helps and every option they take."""
    parser = build_parser()
    assert parser.prog == "perimdef"
    assert parser.description == "Sequential perimeter-defense game simulator and analytics."
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert (subparsers.dest, subparsers.required) == ("command", True)
    assert [(a.dest, a.help) for a in subparsers._choices_actions] == [
        (command, help_) for command, (help_, _) in PINNED_PARSER_SHAPE.items()]
    assert list(subparsers.choices) == list(PINNED_PARSER_SHAPE)
    for command, (_, own) in PINNED_PARSER_SHAPE.items():
        shape = [(tuple(a.option_strings), a.dest, a.type, a.choices, a.default, a.metavar, a.help, type(a).__name__)
                 for a in subparsers.choices[command]._actions]
        assert shape == [_HELP_ACTION, *_COMMON_ACTIONS, *own], command


@pytest.mark.parametrize("command", list(PINNED_PARSER_SHAPE))
def test_help_renders(capsys, command):
    """argparse formats each help with %, so a help holding a bare % breaks ``--help``."""
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    actions = [_HELP_ACTION, *_COMMON_ACTIONS, *PINNED_PARSER_SHAPE[command][1]]
    flags = [flag for action in actions for flag in action[0]]
    assert [flag for flag in flags if flag not in text] == []


@pytest.mark.parametrize("command", list(PINNED_PARSER_SHAPE))
def test_main_dispatches_through_the_module_attribute(monkeypatch, command):
    """``main`` looks each command up by name when it runs, so a wrapper put
    on ``cli.cmd_<command>`` after import, as the benchmark's tracer does, is
    the function called."""
    calls = []

    def recorder(*args):
        calls.append(args)
        return 0

    monkeypatch.setattr(f"perimdef.cli.cmd_{command}", recorder)
    assert main([command]) == 0
    assert len(calls) == 1


def test_verify_rejects_oversized_run(tmp_path, capsys, monkeypatch):
    def no_angles(*args):
        raise AssertionError("arrival bearings were drawn")

    monkeypatch.setattr(engine, "_uniform_angles", no_angles)
    out = tmp_path / "verify.txt"
    assert main(["verify", *BASE, "--n", str(MAX_SIM_GAMES + 1), "--out", str(out)]) == 2
    assert str(MAX_SIM_GAMES) in capsys.readouterr().err
    assert not out.exists()
