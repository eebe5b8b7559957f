"""Tests for the normal (baseline) switch algorithm."""

import pytest

from repro.core.base import LocalView, NeighbourView, Stream
from repro.core.normal_switch import NormalSwitchAlgorithm


def _neighbour(node_id, available, send_rate=20.0):
    available = frozenset(available)
    return NeighbourView(
        node_id=node_id,
        send_rate=send_rate,
        available=available,
        positions={seg: 1 for seg in available},
        buffer_capacity=600,
    )


def _view(old_needed, new_needed, neighbours, *, inbound=7.0, id_end=4):
    return LocalView(
        now=0.0,
        tau=1.0,
        play_rate=10.0,
        inbound_rate=inbound,
        playback_id=0,
        startup_quota_old=2,
        startup_quota_new=5,
        old_needed=frozenset(old_needed),
        new_needed=frozenset(new_needed),
        id_end=id_end,
        id_begin=id_end + 1,
        neighbours=tuple(neighbours),
    )


def test_figure2_ordering_old_first_then_new():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    decision = NormalSwitchAlgorithm().schedule(view)
    streams = [r.stream for r in decision.requests]
    assert len(decision.requests) == 7
    assert streams[:5] == [Stream.OLD] * 5
    assert streams[5:] == [Stream.NEW] * 2
    # old segments in playback order, new segments in id order
    assert [r.seg_id for r in decision.old_requests] == [0, 1, 2, 3, 4]
    assert [r.seg_id for r in decision.new_requests] == [5, 6]


def test_reserved_inbound_blocks_new_stream_while_backlog_large():
    """Reserved reading: Q1 >= I means no new-source requests even if not
    all of the backlog is schedulable this period."""
    neighbour = _neighbour(1, available=list(range(0, 3)) + list(range(20, 30)))
    view = _view(old_needed=range(0, 15), new_needed=range(20, 30),
                 neighbours=[neighbour], inbound=10.0, id_end=19)
    decision = NormalSwitchAlgorithm().schedule(view)
    assert decision.new_requests == ()
    assert len(decision.old_requests) == 3  # only what is schedulable


def test_small_backlog_leaves_room_for_new_stream():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 2), new_needed=range(5, 10),
                 neighbours=[neighbour], inbound=6.0)
    decision = NormalSwitchAlgorithm().schedule(view)
    assert len(decision.old_requests) == 2
    assert len(decision.new_requests) == 4


def test_zero_capacity_produces_empty_decision():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10),
                 neighbours=[neighbour], inbound=0.0)
    assert NormalSwitchAlgorithm().schedule(view).requests == ()


def test_only_new_stream_needed_uses_full_capacity():
    neighbour = _neighbour(1, available=range(5, 30))
    view = _view(old_needed=[], new_needed=range(5, 20), neighbours=[neighbour], inbound=8.0)
    decision = NormalSwitchAlgorithm().schedule(view)
    assert len(decision.requests) == 8
    assert all(r.stream is Stream.NEW for r in decision.requests)


def test_suppliers_shared_budget_between_passes():
    # One slow supplier holds everything: the new-stream pass must respect the
    # sending time already committed to the old stream.
    slow = _neighbour(1, available=range(0, 10), send_rate=5.0)  # max 4 per period
    view = _view(old_needed=range(0, 2), new_needed=range(5, 10), neighbours=[slow],
                 inbound=10.0)
    decision = NormalSwitchAlgorithm().schedule(view)
    assert len(decision.old_requests) == 2
    assert len(decision.new_requests) <= 2  # 4 slots minus 2 used by the old stream


def test_requests_target_actual_holders():
    n_old = _neighbour(1, available={0, 1})
    n_new = _neighbour(2, available={5, 6, 7})
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[n_old, n_new],
                 inbound=10.0)
    decision = NormalSwitchAlgorithm().schedule(view)
    assert decision.new_requests
    holders = {1: {0, 1}, 2: {5, 6, 7}}
    for request in decision.requests:
        assert request.seg_id in holders[request.supplier_id]


def test_i1_i2_reflect_request_counts():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    decision = NormalSwitchAlgorithm().schedule(view)
    assert decision.i1 == pytest.approx(len(decision.old_requests))
    assert decision.i2 == pytest.approx(len(decision.new_requests))
    assert decision.r1 is None and decision.case is None
