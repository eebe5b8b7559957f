"""Tests for buffer-map snapshots and wire-size accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.buffer import SegmentBuffer, StaleBufferMapError
from repro.streaming.buffermap import (
    UNBOUNDED_CAPACITY,
    BufferMapSnapshot,
    buffer_map_bits,
    snapshot_buffer,
)


def test_paper_wire_size_is_620_bits():
    # B = 600 slots -> 600 availability bits + 20 offset bits
    assert buffer_map_bits(600) == 620


def test_wire_size_scales_with_capacity():
    assert buffer_map_bits(100) == 120
    with pytest.raises(ValueError):
        buffer_map_bits(0)


def test_snapshot_restricted_to_windows():
    buffer = SegmentBuffer(capacity=600)
    buffer.insert_many(range(0, 100))
    snap = snapshot_buffer(7, buffer, [(10, 19), (50, 54)], send_rate=12.0)
    assert snap.owner_id == 7
    assert snap.available == frozenset(range(10, 20)) | frozenset(range(50, 55))
    assert snap.send_rate == 12.0
    assert snap.switch_info is None


def test_snapshot_positions_match_buffer_positions():
    buffer = SegmentBuffer(capacity=600)
    buffer.insert_many(range(0, 10))
    snap = snapshot_buffer(1, buffer, [(0, 9)], send_rate=1.0)
    assert snap.position_of(9) == 1
    assert snap.position_of(0) == 10
    # unknown ids default to the newest position
    assert snap.position_of(999) == 1


def test_snapshot_of_unbounded_source_buffer():
    buffer = SegmentBuffer(capacity=None)
    buffer.insert_many(range(0, 50))
    snap = snapshot_buffer(2, buffer, [(0, 49)], send_rate=60.0, switch_info=(899, 900))
    assert snap.buffer_capacity == UNBOUNDED_CAPACITY
    assert snap.switch_info == (899, 900)


def test_snapshot_advertises_the_buffer_capacity():
    buffer = SegmentBuffer(capacity=300)
    buffer.insert(5)
    snap = snapshot_buffer(3, buffer, [(0, 10)], send_rate=1.0)
    assert snap.buffer_capacity == 300


def test_snapshot_has_helper():
    snap = BufferMapSnapshot(owner_id=1, available=frozenset({3, 4}))
    assert snap.has(3)
    assert not snap.has(5)


def test_overlapping_windows_do_not_duplicate():
    buffer = SegmentBuffer(capacity=600)
    buffer.insert_many(range(0, 30))
    snap = snapshot_buffer(1, buffer, [(0, 20), (10, 29)], send_rate=1.0)
    assert snap.available == frozenset(range(0, 30))
    assert len(snap.positions) == 30


def test_snapshot_from_a_bitmap_exposes_the_id_view():
    snap = BufferMapSnapshot(owner_id=4, bits=0b101000, positions={3: 7})
    assert snap.owner_id == snap.node_id == 4
    assert snap.available == frozenset({3, 5})
    assert snap.has(3) and snap.has(5) and not snap.has(4) and not snap.has(-1)
    assert snap.position_of(3) == 7
    assert snap.position_of(5) == 1


# --------------------------------------------------------------------------- #
# snapshot lifetime: a map is a value taken at pull time
# --------------------------------------------------------------------------- #
def test_snapshot_answers_as_of_the_pull_after_the_owner_moves_on():
    buffer = SegmentBuffer(capacity=5)
    buffer.insert_many(range(10, 15))  # holds 10..14
    snap = snapshot_buffer(1, buffer, [(0, 99)], send_rate=1.0)
    at_pull = {seg: snap.position_of(seg) for seg in range(10, 15)}
    assert at_pull == {10: 5, 11: 4, 12: 3, 13: 2, 14: 1}

    buffer.insert_many([15, 16])  # evicts 10 and 11
    # the availability bitmap is a value: later arrivals do not appear in it
    assert snap.available == frozenset(range(10, 15))
    assert not snap.has(15)
    assert snap.position_of(15) == 1  # not advertised: the documented default
    # still-held segments keep their pull-time position, not the live one
    assert [snap.position_of(seg) for seg in (12, 13, 14)] == [3, 2, 1]
    assert buffer.position_from_tail(12) == 5
    # evicted segments fail loudly
    for gone in (10, 11):
        with pytest.raises(StaleBufferMapError):
            snap.position_of(gone)


def test_snapshot_detects_an_evicted_then_refetched_segment():
    buffer = SegmentBuffer(capacity=3)
    buffer.insert_many([1, 2, 3])
    snap = snapshot_buffer(1, buffer, [(0, 9)], send_rate=1.0)
    buffer.insert(4)  # evicts 1
    buffer.insert(1)  # 1 is back, as the newest segment
    assert buffer.position_from_tail(1) == 1
    with pytest.raises(StaleBufferMapError):
        snap.position_of(1)  # was 3 at pull time; must not read 1


# --------------------------------------------------------------------------- #
# the bitmap snapshot against the eager builder it replaced
# --------------------------------------------------------------------------- #
def _eager_reference(buffer, windows):
    """The pre-bitmap ``snapshot_buffer`` body: id -> FIFO position, eagerly."""
    available = {}
    for lo, hi in windows:
        for seg_id in range(max(lo, 0), hi + 1):
            if seg_id in buffer and seg_id not in available:
                available[seg_id] = buffer.position_from_tail(seg_id)
    return available


_ids = st.integers(min_value=0, max_value=120)
_window = st.tuples(st.integers(min_value=-5, max_value=140),
                    st.integers(min_value=-5, max_value=140))


@settings(max_examples=200, deadline=None)
@given(
    inserts=st.lists(_ids, max_size=100),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    windows=st.lists(_window, max_size=4),  # overlapping, empty (hi < lo), past the newest id
)
def test_snapshot_matches_the_eager_reference(inserts, capacity, windows):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.insert_many(inserts)
    reference = _eager_reference(buffer, windows)

    snap = snapshot_buffer(1, buffer, windows, send_rate=1.0)
    assert snap.available == frozenset(reference)
    assert dict(snap.positions) == reference
    for seg in range(0, 145):
        assert snap.has(seg) == (seg in reference)
        assert snap.position_of(seg) == reference.get(seg, 1)
