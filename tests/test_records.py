"""Result records are NamedTuples."""

from __future__ import annotations

import pytest

from perimdef import analytics, engine, geometry, strategy

RECORDS = (
    geometry.GameParams, geometry.ApolloniusCircle, strategy.EngagementCandidate,
    strategy.EngagementSolution, engine.SessionRecord, engine.Trajectory, engine.AgreementReport,
    analytics.PrefixStats, analytics.SweepRow,
)


def test_records_are_tuples():
    for record in RECORDS:
        instance = record._make([None] * len(record._fields))
        assert isinstance(instance, tuple)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(instance, name, 0.0)
