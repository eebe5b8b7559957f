"""Tests for the metric collector using lightweight stand-in peers."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.collectors import (
    MetricsCollector,
    PeerOutcome,
    SwitchTimeStats,
    completion_times,
    switch_time_stats,
)


@dataclass
class _FakePlayback:
    stall_periods: int = 0


@dataclass
class _FakePeer:
    """Minimal object satisfying the collector's peer protocol."""

    node_id: int
    q0: int = 40
    old_received: int = 0
    new_startup_received: int = 0
    startup_quota_new: int = 50
    finish_old_time: Optional[float] = None
    prepared_new_time: Optional[float] = None
    switch_complete_time: Optional[float] = None
    tracked: bool = True
    segments_received_total: int = 0
    playback_old: _FakePlayback = field(default_factory=_FakePlayback)

    def undelivered_old(self) -> int:
        return max(0, self.q0 - self.old_received)

    def delivered_new_startup(self) -> int:
        return min(self.new_startup_received, self.startup_quota_new)


def test_sample_round_averages_ratios():
    collector = MetricsCollector(startup_quota_new=50)
    peers = [
        _FakePeer(1, q0=40, old_received=20, new_startup_received=25),
        _FakePeer(2, q0=40, old_received=40, new_startup_received=50,
                  finish_old_time=5.0, prepared_new_time=6.0, switch_complete_time=6.0),
    ]
    sample = collector.sample_round(3.0, peers)
    assert sample.time == 3.0
    assert sample.undelivered_ratio_old == pytest.approx((0.5 + 0.0) / 2)
    assert sample.delivered_ratio_new == pytest.approx((0.5 + 1.0) / 2)
    assert sample.fraction_finished_old == 0.5
    assert sample.fraction_switched == 0.5
    assert sample.tracked_peers == 2


def test_sample_round_ignores_untracked_peers():
    collector = MetricsCollector(startup_quota_new=50)
    peers = [_FakePeer(1), _FakePeer(2, tracked=False, new_startup_received=50)]
    sample = collector.sample_round(1.0, peers)
    assert sample.tracked_peers == 1
    assert sample.delivered_ratio_new == 0.0


def test_sample_round_with_no_tracked_peers():
    collector = MetricsCollector(startup_quota_new=50)
    sample = collector.sample_round(1.0, [])
    assert sample.tracked_peers == 0
    assert sample.fraction_switched == 1.0


def test_peer_with_zero_backlog_counts_as_fully_delivered():
    collector = MetricsCollector(startup_quota_new=50)
    sample = collector.sample_round(0.0, [_FakePeer(1, q0=0)])
    assert sample.undelivered_ratio_old == 0.0


def test_finalize_summarises_times_and_unfinished():
    collector = MetricsCollector(startup_quota_new=50)
    peers = [
        _FakePeer(1, finish_old_time=10.0, prepared_new_time=16.0, switch_complete_time=16.0),
        _FakePeer(2, finish_old_time=12.0, prepared_new_time=20.0, switch_complete_time=20.0),
        _FakePeer(3),  # never finished
    ]
    metrics = collector.finalize(peers, algorithm="fast", horizon=60.0, overhead_ratio=0.015)
    assert metrics.algorithm == "fast"
    assert metrics.n_peers == 3
    assert metrics.unfinished == 1
    assert metrics.avg_finish_old == pytest.approx((10 + 12 + 60) / 3)
    assert metrics.avg_prepare_new == pytest.approx((16 + 20 + 60) / 3)
    assert metrics.avg_switch_time == metrics.avg_prepare_new
    assert metrics.last_prepare_new == 60.0
    assert metrics.overhead_ratio == 0.015
    assert len(metrics.outcomes) == 3


def test_finalize_with_collected_rounds_exposes_series():
    collector = MetricsCollector(startup_quota_new=50)
    collector.sample_round(1.0, [_FakePeer(1, new_startup_received=10)])
    collector.sample_round(2.0, [_FakePeer(1, new_startup_received=30)])
    metrics = collector.finalize([_FakePeer(1)], algorithm="normal", horizon=60.0)
    series = metrics.series("delivered_ratio_new")
    assert series == [(1.0, pytest.approx(0.2)), (2.0, pytest.approx(0.6))]


def test_collector_requires_positive_quota():
    with pytest.raises(ValueError):
        MetricsCollector(startup_quota_new=0)


# --------------------------------------------------------------------------- #
# the one switch-time summary
# --------------------------------------------------------------------------- #
def _reference_stats(outcomes, horizon, label_of):
    """Horizon-fill, sort, then ``np.mean`` and one ``np.percentile`` per q."""
    groups = {}
    for outcome in outcomes:
        groups.setdefault(label_of(outcome), []).append(outcome)
    reference = {}
    for label in sorted(groups):
        members = groups[label]
        times = np.sort(np.asarray(
            [horizon if o.switch_complete_time is None else o.switch_complete_time
             for o in members], dtype=float))
        reference[label] = SwitchTimeStats(
            peers=len(members),
            mean=float(np.mean(times)),
            p50=float(np.percentile(times, 50.0)),
            p90=float(np.percentile(times, 90.0)),
            p99=float(np.percentile(times, 99.0)),
            unfinished=sum(o.switch_complete_time is None for o in members),
        )
    return reference


_TIMES = st.one_of(
    st.none(),
    st.sampled_from([0.5, 3.0, 12.25]),  # repeated values
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)
_OUTCOMES = st.lists(
    st.tuples(_TIMES, st.sampled_from(["", "adsl", "cable", "fiber"])), max_size=80
).map(lambda rows: [
    PeerOutcome(node_id=i, q0=0, finish_old_time=None, prepared_new_time=t,
                switch_complete_time=t, peer_class=label)
    for i, (t, label) in enumerate(rows)
])


@settings(max_examples=200, deadline=None)
@given(outcomes=_OUTCOMES, horizon=st.sampled_from([12.25, 60.0, 1e4]))
@example(outcomes=[], horizon=60.0)
def test_switch_time_stats_equals_the_reference_bit_for_bit(outcomes, horizon):
    def by_class(outcome):
        return outcome.peer_class

    grouped = switch_time_stats(outcomes, horizon=horizon, group=by_class)
    assert grouped == _reference_stats(outcomes, horizon, by_class)
    assert list(grouped) == sorted(grouped)
    whole = switch_time_stats(outcomes, horizon=horizon)
    if outcomes:
        assert whole == _reference_stats(outcomes, horizon, lambda outcome: "")
    else:  # an emptied mesh reads all zeros; a grouping has no empty group
        assert whole == {"": SwitchTimeStats(0, 0.0, 0.0, 0.0, 0.0, 0)}
        assert grouped == {}


def test_completion_times_fill_the_horizon_in_outcome_order():
    outcomes = [
        PeerOutcome(node_id=i, q0=0, finish_old_time=t, prepared_new_time=None,
                    switch_complete_time=None)
        for i, t in enumerate([3.0, None, 1.0])
    ]
    assert completion_times(outcomes, "finish_old_time", 60) == [3.0, 60.0, 1.0]
    assert completion_times(outcomes, "prepared_new_time", 9.5) == [9.5, 9.5, 9.5]
