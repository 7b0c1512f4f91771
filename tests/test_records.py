"""Result records are NamedTuples, and ``Point2`` is immutable by convention."""

from __future__ import annotations

import dataclasses

import pytest

from perimdef import analytics, engine, geometry, strategy
from perimdef.cli import cmd_trace
from perimdef.geometry import Point2

# The frozen dataclass that ``Point2`` replaced: its repr, == and hash are the
# reference for the slotted class.
_DataclassPoint2 = dataclasses.make_dataclass("Point2", [("x", float), ("y", float)], frozen=True)

RECORDS = (
    geometry.GameParams, geometry.ApolloniusCircle, strategy.EngagementCandidate,
    strategy.EngagementSolution, engine.SessionRecord, engine.Trajectory, engine.AgreementReport,
    analytics.PrefixStats, analytics.SweepRow,
)


def test_records_are_tuples_and_cached_points_stay_put(tmp_path, params):
    nan = float("nan")
    values = [(1.0, 2.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (nan, 1.0), (nan, 1.0), (float("nan"), 1.0),
              (1e-300, -5e300), (3, 4), (3.0, 4.0)]
    new = [Point2(*v) for v in values]
    old = [_DataclassPoint2(*v) for v in values]
    for n, o in zip(new, old):
        assert repr(n) == repr(o)
        assert hash(n) == hash(o)
        assert n.__eq__((n.x, n.y)) is NotImplemented and o.__eq__((o.x, o.y)) is NotImplemented
        assert n != (n.x, n.y)
        for n2, o2 in zip(new, old):
            assert (n == n2) == (o == o2)
            assert (n != n2) == (o != o2)

    for record in RECORDS:
        instance = record._make([None] * len(record._fields))
        assert isinstance(instance, tuple)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(instance, name, 0.0)

    sol = strategy.capture_circle_solution(params)
    points = [sol.x_p, sol.candidate.x_a_eng, sol.candidate.x_d_eng]
    before = [(Point2(p.x, p.y), hash(p)) for p in points]
    engine.verify_outcome_agreement(params, 500, 1)
    cmd_trace({"r_t": 5.0, "rho_t": 10.0, "rho_a": 1.0, "nu": 0.8, "theta_a": 0.6, "defender_angle": 1.1,
               "dt": 1e-3, "format": "csv", "out": str(tmp_path / "trace.csv")})
    assert strategy.capture_circle_solution(params) is sol
    after = [sol.x_p, sol.candidate.x_a_eng, sol.candidate.x_d_eng]
    assert [(p, hash(p)) for p in after] == before
