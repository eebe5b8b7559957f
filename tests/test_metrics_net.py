"""Unit tests for the per-region metrics module."""

import pytest

from repro.metrics.collectors import PeerOutcome, switch_time_stats
from repro.metrics.net import (
    NO_REGION,
    _by_region,
    fabric_stats_rows,
    region_comparison_rows,
)


def per_region(outcomes, horizon):
    return switch_time_stats(outcomes, horizon=horizon, group=_by_region)


def outcome(node_id, switch_time, region=""):
    return PeerOutcome(
        node_id=node_id,
        q0=10,
        finish_old_time=switch_time,
        prepared_new_time=switch_time,
        switch_complete_time=switch_time,
        region=region,
    )


class TestPerRegionSwitchStats:
    def test_groups_by_region_sorted(self):
        outcomes = [
            outcome(1, 10.0, "west"),
            outcome(2, 20.0, "east"),
            outcome(3, 30.0, "east"),
        ]
        stats = per_region(outcomes, 100.0)
        assert list(stats) == ["east", "west"]
        east = stats["east"]
        assert east.peers == 2
        assert east.mean == pytest.approx(25.0)
        assert east.p50 == pytest.approx(25.0)

    def test_unfinished_contributes_horizon(self):
        outcomes = [outcome(1, 10.0, "a"), outcome(2, None, "a")]
        (stats,) = per_region(outcomes, 60.0).values()
        assert stats.unfinished == 1
        assert stats.mean == pytest.approx(35.0)  # (10 + 60) / 2

    def test_empty_region_label_buckets_under_dash(self):
        assert list(per_region([outcome(1, 5.0)], 60.0)) == [NO_REGION]

    def test_empty_outcomes(self):
        assert per_region([], 60.0) == {}


class TestRegionComparisonRows:
    def test_paired_rows_and_reduction(self):
        normal = [outcome(1, 20.0, "a"), outcome(2, 40.0, "b")]
        fast = [outcome(1, 10.0, "a"), outcome(2, 30.0, "b")]
        rows = region_comparison_rows(normal, fast, horizon=60.0)
        assert [row["region"] for row in rows] == ["a", "b"]
        assert rows[0]["reduction"] == pytest.approx(0.5)
        assert rows[1]["normal_switch_time"] == pytest.approx(40.0)
        assert rows[1]["fast_switch_time"] == pytest.approx(30.0)

    def test_region_present_in_only_one_run(self):
        rows = region_comparison_rows(
            [outcome(1, 20.0, "a")], [outcome(2, 10.0, "b")], horizon=60.0
        )
        assert rows == [
            {"region": "a", "peers": 1, "normal_switch_time": 20.0, "fast_switch_time": 0.0,
             "reduction": 1.0, "fast_p90": 0.0, "unfinished": 0},
            {"region": "b", "peers": 1, "normal_switch_time": 0.0, "fast_switch_time": 10.0,
             "reduction": 0.0, "fast_p90": 10.0, "unfinished": 0},
        ]


def test_fabric_stats_rows_round_and_prefix():
    rows = fabric_stats_rows({"messages": 10.0, "drop_ratio": 0.123456789})
    assert rows == [
        {"metric": "net drop_ratio", "value": 0.12346},
        {"metric": "net messages", "value": 10.0},
    ]
