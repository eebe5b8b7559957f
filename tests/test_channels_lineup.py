"""Tests for the Zipf channel lineup sampler."""

import numpy as np
import pytest

from repro.channels.lineup import Channel, ChannelLineup, zipf_weights
from repro.metrics.universe import decile_of
from repro.records import from_json, to_json


class TestZipfWeights:
    def test_weights_normalise_to_one(self):
        for n in (1, 2, 7, 20, 100):
            assert abs(zipf_weights(n, 1.0).sum() - 1.0) < 1e-12

    def test_weights_decrease_with_rank(self):
        w = zipf_weights(20, 1.0)
        assert all(w[i] > w[i + 1] for i in range(19))

    def test_exponent_zero_is_uniform(self):
        w = zipf_weights(5, 0.0)
        assert np.allclose(w, 0.2)

    def test_higher_exponent_is_more_skewed(self):
        assert zipf_weights(10, 1.5)[0] > zipf_weights(10, 0.5)[0]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)


class TestLineupBuild:
    def test_audiences_sum_to_viewer_population(self):
        lineup = ChannelLineup.build(20, 1000, exponent=1.0, min_audience=8)
        assert lineup.total_audience == 1000
        assert lineup.n_channels == 20

    def test_build_is_deterministic(self):
        a = ChannelLineup.build(12, 500, exponent=1.2, min_audience=8)
        b = ChannelLineup.build(12, 500, exponent=1.2, min_audience=8)
        assert a == b

    def test_min_audience_floor_enforced(self):
        lineup = ChannelLineup.build(10, 120, exponent=2.0, min_audience=9)
        assert min(c.audience for c in lineup.channels) >= 9
        assert lineup.total_audience == 120

    def test_exact_total_with_floor_at_the_boundary(self):
        # total == n_channels * min_audience forces a uniform lineup.
        lineup = ChannelLineup.build(5, 40, exponent=1.5, min_audience=8)
        assert lineup.audiences() == (8, 8, 8, 8, 8)

    def test_audience_tracks_popularity(self):
        lineup = ChannelLineup.build(8, 400, exponent=1.0, min_audience=5)
        audiences = lineup.audiences()
        assert all(audiences[i] >= audiences[i + 1] for i in range(7))
        assert lineup.channels[0].name == "ch-01"

    def test_too_few_viewers_rejected(self):
        with pytest.raises(ValueError):
            ChannelLineup.build(10, 50, min_audience=8)
        with pytest.raises(ValueError):
            ChannelLineup.build(3, 30, min_audience=0)

    def test_dict_round_trip(self):
        lineup = ChannelLineup.build(6, 90)
        assert from_json(ChannelLineup, to_json(lineup)) == lineup

    def test_popularity_array_matches_channels(self):
        lineup = ChannelLineup.build(6, 120)
        assert np.allclose(lineup.popularity_array(), zipf_weights(6, 1.0))


class TestDecileBucketing:
    def test_twenty_channels_two_per_decile(self):
        lineup = ChannelLineup.build(20, 1000)
        deciles = [lineup.decile(c.index) for c in lineup.channels]
        assert deciles == sorted(deciles)
        for d in range(10):
            assert deciles.count(d) == 2

    def test_decile_of_extremes(self):
        assert decile_of(0, 20) == 0
        assert decile_of(19, 20) == 9
        assert decile_of(9, 10) == 9

    def test_small_lineups_skip_deciles(self):
        lineup = ChannelLineup.build(4, 60)
        assert [lineup.decile(i) for i in range(4)] == [0, 2, 5, 7]

    def test_decile_of_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            decile_of(-1, 10)
        with pytest.raises(ValueError):
            decile_of(10, 10)
        with pytest.raises(ValueError):
            decile_of(0, 0)

    def test_empty_lineup_rejected(self):
        with pytest.raises(ValueError):
            ChannelLineup(channels=())

    def test_channel_fields(self):
        channel = Channel(index=2, name="ch-03", popularity=0.1, audience=12)
        assert channel.index == 2 and channel.audience == 12
