"""Tests for the channel directory (tracker) service."""

import numpy as np
import pytest

from repro.channels.directory import Directory
from repro.channels.lineup import ChannelLineup
from repro.overlay.membership import MembershipService
from repro.overlay.topology import NodeInfo, Overlay
from repro.sim.rng import sequence_seeds


def _directory(n_channels=4, n_viewers=60, seed=5, min_degree=3):
    lineup = ChannelLineup.build(n_channels, n_viewers, min_audience=8)
    return Directory(
        lineup,
        min_degree=min_degree,
        channel_seeds=sequence_seeds(seed, n_channels),
    )


def _overlay(n=10):
    overlay = Overlay()
    for i in range(n):
        overlay.add_node(NodeInfo(node_id=i))
    return overlay


class TestViewerRegistry:
    def test_register_and_tune(self):
        directory = _directory()
        directory.register_viewer(0, 1)
        directory.register_viewer(1, 1)
        assert directory.audience(1) == 2
        assert directory.channel_of(0) == 1
        left = directory.tune(0, 3)
        assert left == 1
        assert directory.audience(1) == 1 and directory.audience(3) == 1
        assert directory.zaps == 1

    def test_tune_to_same_channel_is_a_noop(self):
        directory = _directory()
        directory.register_viewer(0, 2)
        assert directory.tune(0, 2) == 2
        assert directory.zaps == 0

    def test_double_registration_rejected(self):
        directory = _directory()
        directory.register_viewer(0, 0)
        with pytest.raises(ValueError):
            directory.register_viewer(0, 1)

    def test_unknown_channel_rejected(self):
        directory = _directory(n_channels=3, n_viewers=30)
        with pytest.raises(ValueError):
            directory.register_viewer(0, 3)
        directory.register_viewer(0, 0)
        with pytest.raises(ValueError):
            directory.tune(0, -1)

    def test_seed_count_must_match_lineup(self):
        lineup = ChannelLineup.build(4, 60, min_audience=8)
        with pytest.raises(ValueError):
            Directory(lineup, min_degree=3, channel_seeds=[1, 2])


class TestMeshRegistry:
    def test_factory_creates_channel_scoped_service(self):
        directory = _directory()
        overlay = _overlay()
        factory = directory.membership_factory(2)
        service = factory(overlay, frozenset({0, 1}))
        assert isinstance(service, MembershipService)
        assert factory(overlay, frozenset({0, 1})) is not service  # one per mesh, kept by nobody
        assert service.overlay is overlay
        assert service.min_degree == 3
        assert service.protected == {0, 1}

    def test_paired_algorithms_draw_identical_partners(self):
        directory = _directory()
        factory = directory.membership_factory(1)
        a = factory(_overlay(), frozenset())
        b = factory(_overlay(), frozenset())
        ja = a.join(NodeInfo(node_id=100))
        jb = b.join(NodeInfo(node_id=100))
        assert ja == jb
        assert sorted(a.overlay.neighbours(100)) == sorted(b.overlay.neighbours(100))

    def test_different_channels_draw_differently(self):
        directory = _directory()
        a = directory.membership_factory(0)(_overlay(30), frozenset())
        b = directory.membership_factory(3)(_overlay(30), frozenset())
        a.join(NodeInfo(node_id=100))
        b.join(NodeInfo(node_id=100))
        # same population, independent channel seeds: neighbour draws differ
        assert sorted(a.overlay.neighbours(100)) != sorted(b.overlay.neighbours(100))

    def test_joiner_gets_neighbours_on_its_target_channel(self):
        directory = _directory()
        overlay = _overlay(12)
        service = directory.membership_factory(0)(overlay, frozenset())
        node = service.join()
        assert len(overlay.neighbours(node)) == 3
        assert all(n in overlay for n in overlay.neighbours(node))

    def test_factory_rejects_unknown_channel(self):
        directory = _directory(n_channels=2, n_viewers=30)
        with pytest.raises(ValueError):
            directory.membership_factory(2)
