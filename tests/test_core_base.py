"""Tests for the shared core data model (views and decisions)."""

from repro.core.base import (
    LocalView,
    NeighbourView,
    ScheduleDecision,
    SegmentRequest,
    Stream,
)


def _view(**overrides):
    defaults = dict(
        now=0.0,
        tau=1.0,
        play_rate=10.0,
        inbound_rate=15.0,
        playback_id=100,
        startup_quota_old=10,
        startup_quota_new=50,
        old_needed=frozenset({101, 102}),
        new_needed=frozenset({200, 201}),
        id_end=150,
        id_begin=151,
        neighbours=(
            NeighbourView(
                node_id=1,
                send_rate=10.0,
                available=frozenset({101, 200}),
                positions={101: 5, 200: 2},
                buffer_capacity=600,
            ),
        ),
    )
    defaults.update(overrides)
    return LocalView(**defaults)


def test_view_counts_and_stream_classification():
    view = _view()
    assert view.q1 == 2
    assert view.q2 == 2
    assert view.stream_of(120) is Stream.OLD
    assert view.stream_of(151) is Stream.NEW
    assert view.stream_of(400) is Stream.NEW


def test_stream_classification_without_switch_info():
    view = _view(id_end=None, id_begin=None, new_needed=frozenset())
    assert view.stream_of(99999) is Stream.OLD


def test_suppliers_of_and_needed_union():
    view = _view()
    assert [n.node_id for n in view.suppliers_of(101)] == [1]
    assert view.suppliers_of(102) == ()
    assert view.needed() == frozenset({101, 102, 200, 201})


def test_neighbour_view_bitmap_and_id_forms_agree():
    from_ids = NeighbourView(node_id=1, send_rate=1.0, available={3, 70, 640})
    from_bits = NeighbourView(node_id=1, send_rate=1.0, bits=1 << 3 | 1 << 70 | 1 << 640)
    assert from_ids.bits == from_bits.bits
    assert from_bits.available == from_ids.available == frozenset({3, 70, 640})
    for view in (from_ids, from_bits):
        assert view.has(70) and not view.has(71) and not view.has(-1)


def test_supply_bits_is_the_union_of_the_neighbour_maps():
    view = _view(neighbours=(
        NeighbourView(node_id=1, send_rate=1.0, available={101, 200}),
        NeighbourView(node_id=2, send_rate=1.0, bits=1 << 102 | 1 << 200),
    ))
    assert view.supply_bits == 1 << 101 | 1 << 102 | 1 << 200
    assert [n.node_id for n in view.suppliers_of(200)] == [1, 2]
    assert _view(neighbours=()).supply_bits == 0


def test_capacity_segments_rounds_rate_times_period():
    assert _view(inbound_rate=15.4).capacity_segments() == 15
    assert _view(inbound_rate=15.6).capacity_segments() == 16
    assert _view(inbound_rate=0.0).capacity_segments() == 0


def test_neighbour_position_defaults_to_newest():
    neighbour = NeighbourView(node_id=2, send_rate=1.0, available=frozenset({7}))
    assert neighbour.position_of(7) == 1


def test_decision_partitions_requests_by_stream():
    decision = ScheduleDecision(
        requests=(
            SegmentRequest(seg_id=101, supplier_id=1, stream=Stream.OLD),
            SegmentRequest(seg_id=200, supplier_id=1, stream=Stream.NEW),
        ),
        i1=1.0,
        i2=1.0,
    )
    assert [r.seg_id for r in decision.old_requests] == [101]
    assert [r.seg_id for r in decision.new_requests] == [200]
    assert decision.requested_ids() == frozenset({101, 200})


def test_stream_enum_labels():
    assert str(Stream.OLD) == "S1"
    assert str(Stream.NEW) == "S2"
