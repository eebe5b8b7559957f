"""Tests for the FIFO segment buffer."""

import pytest

from repro.streaming.buffer import (
    SegmentBuffer,
    popcount,
    range_mask,
    set_bits,
)


def test_insert_contains_len():
    buffer = SegmentBuffer(capacity=5)
    buffer.insert(10)
    buffer.insert(11)
    assert len(buffer) == 2
    assert 10 in buffer and buffer.contains(11)
    assert 12 not in buffer


def test_fifo_eviction_order():
    buffer = SegmentBuffer(capacity=3)
    evicted = buffer.insert_many([1, 2, 3])
    assert evicted == []
    assert buffer.insert(4) == 1
    assert buffer.insert(5) == 2
    assert buffer.as_set() == frozenset({3, 4, 5})
    assert buffer.evicted_total == 2


def test_duplicate_insert_is_noop():
    buffer = SegmentBuffer(capacity=3)
    buffer.insert_many([1, 2, 3])
    assert buffer.insert(2) is None
    assert len(buffer) == 3
    # eviction order unchanged: 1 is still the oldest
    assert buffer.insert(4) == 1


def test_unbounded_buffer_never_evicts():
    buffer = SegmentBuffer(capacity=None)
    buffer.insert_many(range(1000))
    assert len(buffer) == 1000
    assert buffer.evicted_total == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SegmentBuffer(capacity=0)


def test_newest_and_oldest():
    buffer = SegmentBuffer(capacity=4)
    assert buffer.newest() is None and buffer.oldest() is None
    buffer.insert_many([7, 3, 9])
    assert buffer.newest() == 9
    assert buffer.oldest() == 7


def test_position_from_tail_counts_from_insertion_end():
    buffer = SegmentBuffer(capacity=10)
    buffer.insert_many([100, 101, 102])
    assert buffer.position_from_tail(102) == 1  # newest
    assert buffer.position_from_tail(101) == 2
    assert buffer.position_from_tail(100) == 3  # next to be evicted
    with pytest.raises(KeyError):
        buffer.position_from_tail(999)


def test_position_from_tail_stable_after_evictions():
    buffer = SegmentBuffer(capacity=3)
    buffer.insert_many([1, 2, 3, 4, 5])  # holds 3, 4, 5
    assert buffer.position_from_tail(5) == 1
    assert buffer.position_from_tail(3) == 3


def test_presence_bitmap_follows_insert_and_evict():
    buffer = SegmentBuffer(capacity=3)
    assert buffer.bits == 0
    buffer.insert_many([1, 2, 3])
    assert buffer.bits == 0b1110
    buffer.insert(2)  # duplicate: no change
    assert buffer.bits == 0b1110
    buffer.insert(5)  # evicts 1
    assert buffer.bits == 0b101100


def test_negative_ids_are_rejected_before_any_mutation():
    buffer = SegmentBuffer(capacity=3)
    buffer.insert(1)
    with pytest.raises(ValueError):
        buffer.insert(-1)
    assert list(buffer) == [1] and buffer.bits == 0b10


def test_bit_helpers():
    assert popcount(0) == 0 and set_bits(0) == []
    assert popcount(0b1011) == 3 and set_bits(0b1011) == [0, 1, 3]
    assert set_bits(1 << 700 | 1 << 64 | 1) == [0, 64, 700]
    assert range_mask(2, 4) == 0b11100
    assert range_mask(4, 2) == 0
    assert range_mask(-3, 1) == 0b11  # ids below zero do not exist
    assert range_mask(-5, -1) == 0


def test_ids_in_range_and_missing_in_range():
    buffer = SegmentBuffer(capacity=10)
    buffer.insert_many([5, 6, 9])
    assert buffer.ids_in_range(5, 9) == [5, 6, 9]
    assert buffer.missing_in_range(5, 9) == [7, 8]
    assert buffer.ids_in_range(9, 5) == []
    assert buffer.missing_in_range(9, 5) == []


def test_ids_in_range_wide_window_uses_buffer_iteration():
    buffer = SegmentBuffer(capacity=5)
    buffer.insert_many([100, 200, 300])
    assert buffer.ids_in_range(0, 1_000_000) == [100, 200, 300]


def test_contains_all():
    buffer = SegmentBuffer(capacity=10)
    buffer.insert_many(range(20, 25))
    assert buffer.contains_all(range(20, 25))
    assert not buffer.contains_all(range(20, 26))


def test_contains_range():
    buffer = SegmentBuffer(capacity=10)
    buffer.insert_many(range(20, 25))
    assert buffer.contains_range(20, 24)
    assert buffer.contains_range(22, 22)
    assert not buffer.contains_range(20, 25)
    assert not buffer.contains_range(19, 24)
    assert buffer.contains_range(24, 20)  # an empty range is vacuously held


def test_iteration_is_oldest_to_newest():
    buffer = SegmentBuffer(capacity=3)
    buffer.insert_many([10, 30, 20])
    assert list(buffer) == [10, 30, 20]
