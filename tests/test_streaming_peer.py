"""Tests for peer behaviour (knowledge updates, scheduling, playback)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast_switch import FastSwitchAlgorithm
from repro.core.normal_switch import NormalSwitchAlgorithm
from repro.streaming.bandwidth import BandwidthProfile
from repro.streaming.buffermap import BufferMapSnapshot
from repro.streaming.peer import PeerNode


def _peer(algorithm=None, inbound=15.0, **kwargs):
    return PeerNode(
        node_id=10,
        bandwidth=BandwidthProfile(inbound=inbound, outbound=15.0),
        algorithm=algorithm or FastSwitchAlgorithm(),
        buffer_capacity=600,
        play_rate=10.0,
        startup_quota_old=10,
        startup_quota_new=50,
        tau=1.0,
        **kwargs,
    )


def _snapshot(owner, available, *, send_rate=20.0, switch_info=None):
    available = frozenset(available)
    return BufferMapSnapshot(
        owner_id=owner,
        available=available,
        positions={seg: 1 for seg in available},
        buffer_capacity=600,
        send_rate=send_rate,
        switch_info=switch_info,
    )


def _seeded_peer(head=879, position=850, **kwargs):
    peer = _peer(**kwargs)
    peer.seed_steady_state(head_id=head, playback_position=position, first_old_id=0)
    return peer


def test_seed_steady_state_fills_buffer_and_starts_playback():
    peer = _seeded_peer()
    assert peer.playback_old is not None and peer.playback_old.started
    assert peer.playback_old.position == 850
    assert peer.buffer.contains(879)
    assert peer.buffer.contains(280)  # within the 600-slot window
    assert not peer.buffer.contains(279)
    assert peer.highest_known_old == 879


def test_seed_validation():
    peer = _peer()
    with pytest.raises(ValueError):
        peer.seed_steady_state(head_id=10, playback_position=20, first_old_id=0)


def test_observe_without_seed_raises():
    peer = _peer()
    with pytest.raises(RuntimeError):
        peer.observe_snapshots([], now=0.0)


def test_switch_discovery_requires_announcing_neighbour():
    peer = _seeded_peer()
    peer.observe_snapshots([_snapshot(1, range(880, 890))], now=1.0)
    assert peer.switch_plan is None       # no announcement, just more old segments
    assert peer.highest_known_old == 889
    assert peer.wanted_old == set(range(880, 890))

    peer.observe_snapshots(
        [_snapshot(2, range(900, 905), switch_info=(899, 900))], now=2.0
    )
    assert peer.switch_plan is not None
    assert peer.switch_plan.id_end == 899
    assert peer.discovered_switch_time == 2.0
    assert peer.playback_old.last_id == 899
    # the whole startup window becomes wanted, regardless of availability
    assert peer.wanted_new == set(range(900, 950))


def test_wanted_old_clamped_to_id_end_after_discovery():
    peer = _seeded_peer()
    peer.observe_snapshots(
        [_snapshot(1, range(880, 960), switch_info=(899, 900))], now=1.0
    )
    assert max(peer.wanted_old) == 899
    assert peer.highest_known_new == 959


@settings(max_examples=150, deadline=None)
@given(
    maps=st.lists(st.frozensets(st.integers(min_value=840, max_value=1000), max_size=30),
                  max_size=4),
    announced=st.booleans(),
)
def test_highest_known_ids_match_a_per_id_walk(maps, announced):
    """The ``bit_length`` rule against the per-id classification it replaced."""
    id_end, id_begin = 899, 900
    info = (id_end, id_begin) if announced else None
    peer = _seeded_peer()
    peer.observe_snapshots(
        [_snapshot(i, ids, switch_info=info) for i, ids in enumerate(maps)], now=1.0
    )

    known = announced and bool(maps)
    expect_old = min(879, id_end) if known else 879
    expect_new = None
    for seg_id in sorted(set().union(*maps)):
        if known and seg_id >= id_begin:
            expect_new = seg_id
        elif not known or seg_id <= id_end:
            expect_old = max(expect_old, seg_id)
    assert peer.highest_known_old == expect_old
    assert peer.highest_known_new == expect_new
    assert peer.wanted_old == set(range(880, expect_old + 1))


def test_decide_produces_requests_within_capacity():
    peer = _seeded_peer(inbound=12.0)
    snaps = [
        _snapshot(1, range(880, 900), switch_info=None),
        _snapshot(2, range(895, 910), switch_info=(899, 900)),
    ]
    decision = peer.decide(snaps, now=1.0)
    assert 0 < len(decision.requests) <= 12
    assert peer.requests_issued == len(decision.requests)
    for request in decision.requests:
        assert request.supplier_id in (1, 2)


def test_apply_delivery_updates_wanted_sets_and_counters():
    peer = _seeded_peer()
    peer.observe_snapshots([_snapshot(1, range(900, 905), switch_info=(899, 900))], now=1.0)
    peer.apply_delivery(880, now=1.0)
    peer.apply_delivery(900, now=1.0)
    assert peer.old_received_since_switch == 1
    assert peer.new_startup_received == 1
    assert peer.has_new_data
    assert 880 not in peer.wanted_old
    assert 900 not in peer.wanted_new
    # duplicate delivery changes nothing
    peer.apply_delivery(900, now=2.0)
    assert peer.new_startup_received == 1


def test_prepared_time_recorded_when_startup_window_complete():
    peer = _seeded_peer()
    peer.observe_snapshots([_snapshot(1, [900], switch_info=(899, 900))], now=1.0)
    for seg in range(900, 950):
        peer.apply_delivery(seg, now=5.0)
    assert peer.prepared_new_time == 5.0


def test_switch_completion_needs_both_conditions():
    peer = _seeded_peer(head=890, position=890)
    peer.observe_snapshots([_snapshot(1, [900], switch_info=(899, 900))], now=1.0)
    # receive the rest of the old stream and the full startup window
    for seg in range(891, 900):
        peer.apply_delivery(seg, now=1.0)
    for seg in range(900, 950):
        peer.apply_delivery(seg, now=2.0)
    assert peer.prepared_new_time == 2.0
    assert peer.switch_complete_time is None
    # play out the old stream (10 segments per period)
    t = 2.0
    while peer.finish_old_time is None:
        peer.advance_playback(now=t, duration=1.0)
        t += 1.0
        assert t < 10.0
    peer.advance_playback(now=t, duration=1.0)
    assert peer.switch_complete_time is not None
    assert peer.switch_done
    assert peer.playback_new.started


def test_announcement_only_after_holding_new_data():
    peer = _seeded_peer()
    peer.observe_snapshots([_snapshot(1, [900], switch_info=(899, 900))], now=1.0)
    assert peer.switch_announcement() is None
    peer.apply_delivery(900, now=1.0)
    assert peer.switch_announcement() == (899, 900)


def test_snapshot_for_exposes_window_and_send_rate():
    peer = _seeded_peer()
    snap = peer.snapshot_for([(870, 879)], send_rate=3.0)
    assert snap.owner_id == 10
    assert snap.available == frozenset(range(870, 880))
    assert snap.send_rate == 3.0
    assert snap.switch_info is None


def test_interest_windows_before_and_after_discovery():
    peer = _seeded_peer()
    before = peer.interest_windows()
    assert before == [(850, 850 + peer.lookahead)]
    peer.observe_snapshots([_snapshot(1, [900], switch_info=(899, 900))], now=1.0)
    after = peer.interest_windows()
    assert after[0] == (850, 899)
    assert after[1][0] == 900


def test_undelivered_old_uses_q0_baseline():
    peer = _seeded_peer(head=879)
    peer.q0 = 20  # e.g. id_end=899, head=879
    peer.observe_snapshots([_snapshot(1, range(880, 900), switch_info=(899, 900))], now=1.0)
    assert peer.undelivered_old() == 20
    peer.apply_delivery(880, now=1.0)
    peer.apply_delivery(881, now=1.0)
    assert peer.undelivered_old() == 18
    assert peer.delivered_new_startup() == 0


def test_normal_algorithm_peer_roundtrip():
    peer = _seeded_peer(algorithm=NormalSwitchAlgorithm(), head=895, position=890)
    snaps = [_snapshot(1, range(890, 920), switch_info=(899, 900))]
    decision = peer.decide(snaps, now=1.0)
    # only old-stream segments 896..899 are missing and known: 4 requests,
    # and the backlog (4) is below capacity so the rest goes to the new stream
    old_ids = {r.seg_id for r in decision.old_requests}
    assert old_ids == {896, 897, 898, 899}
    assert len(decision.requests) <= peer.bandwidth.inbound
