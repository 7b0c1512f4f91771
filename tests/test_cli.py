"""Command-line interface: schemas, determinism, exit codes, config handling."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from perimdef import analytics
from perimdef.cli import MAX_GRID_POINTS, main
from perimdef.geometry import validate_params

BASE = ["--r-t", "5", "--rho-t", "10", "--rho-a", "1", "--nu", "0.8"]
# sha256 of CLI outputs, pinned so that a refactor of the engine, the
# aggregation or the writers keeps every byte.
PINNED_SHA256 = {
    "sim.csv": "e23f64c0e917967927298d2c5062b1afd893f93133f97944fd3531a44f8cd761",
    "sim_trials.csv": "c8cc8e2a7f0aa1d393b2bdf5b51ceefd0db318a9ce52e57842f9522660f3c03d",
    "sweep.csv": "8f76fd9a0baaa3ce9c6fe652f8880268c9d5fba628c7154697b44e572e308907",
}


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


def test_invalid_params_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--r-t", "5", "--rho-t", "2", "--rho-a", "1",
                 "--nu", "0.8", "--n", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "second" in err
    assert not out.exists()


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


@pytest.mark.parametrize("outer, inner", [
    ("rho_a=0:1:100000000", "rho_t=4:12:2"),
    ("rho_a=0:1:1001", "rho_t=4:12:1000"),
])
def test_sweep_rejects_oversized_grid(tmp_path, capsys, outer, inner):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--r-t", "5", "--nu", "0.75",
                 "--grid", outer, "--grid", inner, "--out", str(out)])
    assert code == 2
    assert str(MAX_GRID_POINTS) in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_two_grids(tmp_path, capsys):
    code = main(["sweep", "--r-t", "5", "--nu", "0.75",
                 "--grid", "rho_a=0.5:3:2", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "two --grid" in capsys.readouterr().err


def test_sweep_rejects_malformed_grid(tmp_path):
    code = main(["sweep", "--r-t", "5", "--nu", "0.75",
                 "--grid", "rho_a=0.5:3", "--grid", "rho_t=4:12:2",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2


@pytest.mark.parametrize("bounds", ["nan:1", "0.2:inf", "-inf:1"])
def test_sweep_rejects_nonfinite_grid_bounds(tmp_path, capsys, bounds):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--r-t", "5", "--nu", "0.75", "--grid", f"rho_a={bounds}:3",
                 "--grid", "rho_t=4:12:2", "--out", str(out)])
    assert code == 2
    assert "bad grid range" in capsys.readouterr().err
    assert not out.exists()


def test_verify_agrees_and_exits_zero(tmp_path):
    out = tmp_path / "verify.txt"
    code = main(["verify", *BASE, "--n", "25", "--seed", "3",
                 "--dt", "1e-4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "n_mismatches = 0" in text
    assert "verdict = agree" in text


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


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text(
        "# baseline parameters\n"
        "r_t = 5\nrho_t = 10\nrho_a = 1\nnu = 0.8\nn = 4\nseed = 2\n"
    )
    out_a = tmp_path / "a.csv"
    assert main(["analytic", "--config", str(cfg), "--out", str(out_a)]) == 0
    # flag overrides the config horizon
    out_b = tmp_path / "b.csv"
    assert main(["analytic", "--config", str(cfg), "--n", "9", "--out", str(out_b)]) == 0
    assert _read(out_a)[1].split(",")[0] == "4"
    assert _read(out_b)[1].split(",")[0] == "9"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("r_t = 5\nwarp_factor = 9\n")
    code = main(["analytic", "--config", str(cfg), "--n", "5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_missing_required_flags_exit_2(tmp_path, capsys):
    code = main(["analytic", "--r-t", "5", "--rho-t", "10", "--rho-a", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--nu" in capsys.readouterr().err


def test_config_format_validated(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = xml\n")
    out = tmp_path / "x.out"
    code = main(["analytic", *BASE, "--config", str(cfg), "--n", "5", "--out", str(out)])
    assert code == 2
    assert "xml" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("verify", ["--n", "3"]),
    ("trace", ["--theta-a", "0.6"]),
])
@pytest.mark.parametrize("dt", ["0", "-1"])
def test_nonpositive_dt_rejected(tmp_path, capsys, command, extra, dt):
    out = tmp_path / "x.out"
    assert main([command, *BASE, *extra, "--dt", dt, "--out", str(out)]) == 2
    assert "dt" in capsys.readouterr().err
    cfg = tmp_path / "dt.cfg"
    cfg.write_text(f"dt = {dt}\n")
    assert main([command, *BASE, *extra, "--config", str(cfg), "--out", str(out)]) == 2
    assert "dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, key, value", [
    ("trace", ["--theta-a", "0.6"], "defender_angle", "nan"),
    ("trace", [], "theta_a", "nan"),
    ("trace", ["--theta-a", "0.6"], "dt", "inf"),
    ("verify", ["--n", "3"], "eps_capture", "nan"),
    ("verify", ["--n", "3"], "eps_capture", "0"),
    ("trace", ["--theta-a", "0.6"], "eps_capture", "-1"),
    ("analytic", ["--n", "5"], "rho_a", "inf"),
])
def test_nonfinite_or_nonpositive_floats_rejected(tmp_path, capsys, command, extra, key, value):
    out = tmp_path / "x.out"
    flag = "--" + key.replace("_", "-")
    assert main([command, *BASE, *extra, flag, value, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    # a flag would override the config value
    base = BASE[:BASE.index(flag)] + BASE[BASE.index(flag) + 2:] if flag in BASE else BASE
    assert main([command, *base, *extra, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_rejects_nonpositive_game_count(tmp_path, capsys, n):
    out = tmp_path / "verify.txt"
    assert main(["verify", *BASE, "--n", n, "--out", str(out)]) == 2
    assert "n_games" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bytes_pinned(tmp_path):
    assert main(["simulate", *BASE, "--n", "40", "--trials", "5", "--seed", "9",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["sweep", "--r-t", "5", "--nu", "0.75", "--grid", "rho_a=0.5:2:3",
                 "--grid", "rho_t=6:12:4", "--n", "20,100",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256
