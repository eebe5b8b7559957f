"""Edge-case tests for the universe metric helpers.

Covers the boundary behaviour the channel reports rely on:
``decile_of`` at exact decile boundaries and for single-channel lineups,
``weighted_mean`` with zero total weight, and the ungrouped
``switch_time_stats`` (a channel's zap times) on empty and truncated
outcome sets.
"""

import pytest

from repro.metrics.collectors import PeerOutcome, switch_time_stats
from repro.metrics.universe import decile_of, weighted_mean


def zap_time_stats(outcomes, horizon):
    return switch_time_stats(outcomes, horizon=horizon)[""]


def outcome(node_id, switch_time):
    return PeerOutcome(
        node_id=node_id,
        q0=0,
        finish_old_time=switch_time,
        prepared_new_time=switch_time,
        switch_complete_time=switch_time,
    )


class TestDecileOf:
    def test_exact_decile_boundaries_ten_channels(self):
        # With exactly 10 channels every rank is its own decile.
        assert [decile_of(r, 10) for r in range(10)] == list(range(10))

    def test_exact_decile_boundaries_twenty_channels(self):
        # Rank 2 of 20 is the first rank of decile 1 (2 * 10 // 20 == 1).
        assert decile_of(1, 20) == 0
        assert decile_of(2, 20) == 1
        assert decile_of(17, 20) == 8
        assert decile_of(18, 20) == 9
        assert decile_of(19, 20) == 9

    def test_non_multiple_of_ten_boundaries(self):
        # 12 channels: boundaries fall where rank * 10 crosses a multiple of 12.
        deciles = [decile_of(r, 12) for r in range(12)]
        assert deciles == sorted(deciles)
        assert deciles[0] == 0 and deciles[-1] == 9
        # Deciles 0..9 with 12 channels: two deciles hold two channels.
        assert len(set(deciles)) == 10

    def test_single_channel_lineup_is_decile_zero(self):
        assert decile_of(0, 1) == 0

    def test_fewer_channels_than_deciles_leaves_gaps(self):
        deciles = [decile_of(r, 3) for r in range(3)]
        assert deciles == [0, 3, 6]

    def test_rejects_out_of_range_rank(self):
        with pytest.raises(ValueError):
            decile_of(-1, 10)
        with pytest.raises(ValueError):
            decile_of(10, 10)
        with pytest.raises(ValueError):
            decile_of(0, 0)


class TestWeightedMean:
    def test_weights_values(self):
        assert weighted_mean([(10.0, 1), (20.0, 3)]) == pytest.approx(17.5)

    def test_zero_total_weight_returns_zero(self):
        assert weighted_mean([(10.0, 0), (20.0, 0)]) == 0.0

    def test_empty_pairs_return_zero(self):
        assert weighted_mean([]) == 0.0

    def test_negative_total_weight_returns_zero(self):
        # Defensive: malformed inputs must not divide by a negative total.
        assert weighted_mean([(10.0, -1)]) == 0.0


class TestZapTimeStats:
    def test_empty_outcomes_are_all_zero(self):
        stats = zap_time_stats([], horizon=50.0)
        assert stats.peers == 0
        assert stats.mean == 0.0 and stats.p99 == 0.0
        assert stats.unfinished == 0

    def test_unfinished_peers_contribute_horizon(self):
        stats = zap_time_stats([outcome(1, 10.0), outcome(2, None)], horizon=50.0)
        assert stats.peers == 2
        assert stats.unfinished == 1
        assert stats.mean == pytest.approx(30.0)

    def test_single_peer_percentiles_collapse(self):
        stats = zap_time_stats([outcome(1, 12.0)], horizon=50.0)
        assert stats.p50 == stats.p90 == stats.p99 == pytest.approx(12.0)
