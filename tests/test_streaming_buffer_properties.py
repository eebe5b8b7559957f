"""Property-based tests for the FIFO buffer (hypothesis)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.vector import MirroredBuffer, SegmentArrays
from repro.streaming.buffer import SegmentBuffer, popcount, set_bits

ids = st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=120)
capacities = st.integers(min_value=1, max_value=40)
#: a mutation script: the ids inserted, one by one, into a bounded or unbounded
#: buffer (FIFO eviction is a buffer's only removal path)
mutations = st.lists(st.integers(min_value=0, max_value=200), max_size=150)
any_capacity = st.one_of(st.none(), capacities)


def _apply(buffer, script):
    for seg in script:
        buffer.insert(seg)


@settings(max_examples=200, deadline=None)
@given(inserts=ids, capacity=capacities)
def test_size_never_exceeds_capacity(inserts, capacity):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.insert_many(inserts)
    assert len(buffer) <= capacity
    assert len(buffer) == len(buffer.as_set())


#: long scripts: eviction passes the queue's compaction point many times over
long_mutations = st.lists(st.integers(min_value=0, max_value=200), max_size=400)


def _plain(capacity):
    return SegmentBuffer(capacity=capacity)


def _mirrored(capacity):
    return MirroredBuffer(capacity, SegmentArrays(1, 8), 0)


#: re-inserts evicted ids and compacts the queue many times
_CYCLING = [step % 150 for step in range(400)]


@settings(max_examples=200, deadline=None)
@given(script=long_mutations, capacity=any_capacity, make=st.sampled_from([_plain, _mirrored]))
@example(script=_CYCLING, capacity=7, make=_plain)
@example(script=_CYCLING, capacity=7, make=_mirrored)
@example(script=_CYCLING, capacity=None, make=_mirrored)
def test_buffer_matches_reference_fifo_model(script, capacity, make):
    """The buffer behaves exactly like a simple list-based FIFO model.

    The model: an insert of an id not currently held appends it; when the
    size exceeds the capacity the oldest held id is dropped.  Re-inserting
    a currently-held id is a no-op, but an id that was evicted earlier can
    be inserted again.  A position is the place from the model's newest
    end.  Both buffer kinds, both bounded and not.
    """
    buffer = make(capacity)
    model: list[int] = []
    for step, seg in enumerate(script):
        evicted = None
        if seg not in model:
            model.append(seg)
            if capacity is not None and len(model) > capacity:
                evicted = model.pop(0)
        assert buffer.insert(seg) == evicted
        assert len(buffer) == len(model)
        assert buffer.newest() == (model[-1] if model else None)
        assert buffer.oldest() == (model[0] if model else None)
        if step % 50 == 0 or step == len(script) - 1:
            assert list(buffer) == model
            assert [buffer.position_from_tail(seg) for seg in model] == list(
                range(len(model), 0, -1)
            )
    assert buffer.as_set() == frozenset(model)
    assert set_bits(buffer.bits) == sorted(model)


@settings(max_examples=200, deadline=None)
@given(inserts=ids, capacity=capacities)
def test_positions_are_a_permutation_of_1_to_n(inserts, capacity):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.insert_many(inserts)
    positions = sorted(buffer.position_from_tail(seg) for seg in buffer.as_set())
    assert positions == list(range(1, len(buffer) + 1))


@settings(max_examples=200, deadline=None)
@given(inserts=ids, capacity=capacities)
def test_newest_has_position_one_and_oldest_has_position_len(inserts, capacity):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.insert_many(inserts)
    if len(buffer) == 0:
        return
    assert buffer.position_from_tail(buffer.newest()) == 1
    assert buffer.position_from_tail(buffer.oldest()) == len(buffer)


@settings(max_examples=150, deadline=None)
@given(inserts=ids, capacity=capacities, lo=st.integers(0, 200), hi=st.integers(0, 200))
def test_range_queries_partition_the_window(inserts, capacity, lo, hi):
    buffer = SegmentBuffer(capacity=capacity)
    buffer.insert_many(inserts)
    held = buffer.ids_in_range(lo, hi)
    missing = buffer.missing_in_range(lo, hi)
    window = list(range(lo, hi + 1))
    assert sorted(held + missing) == window
    assert all(seg in buffer for seg in held)
    assert all(seg not in buffer for seg in missing)


@settings(max_examples=200, deadline=None)
@given(script=mutations, capacity=any_capacity)
def test_bitmap_equals_the_key_set_of_the_insertion_index(script, capacity):
    buffer = SegmentBuffer(capacity=capacity)
    for step in script:
        _apply(buffer, [step])
        assert set_bits(buffer.bits) == _indexed(buffer)
    assert popcount(buffer.bits) == len(buffer)
    assert set_bits(buffer.bits) == sorted(buffer.as_set())


def _indexed(buffer):
    """Ids the index marks as held (insertion number + 1 != 0), ascending."""
    return [seg for seg, number in enumerate(buffer._index) if number]


def _state(buffer):
    return (
        list(buffer),
        {seg: buffer._index[seg] for seg in buffer},
        _indexed(buffer),
        buffer.bits,
        buffer._counter,
        buffer.evicted_total,
    )


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=300),
    length=st.integers(min_value=0, max_value=80),
    step=st.sampled_from([1, 1, 1, 2, -1]),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    before=st.lists(st.integers(min_value=0, max_value=300), max_size=4),
    after=mutations,
)
def test_bulk_seeding_equals_per_id_seeding(start, length, step, capacity, before, after):
    """``insert_many(range)`` -- bulk branch or not -- leaves the state the
    per-id loop leaves, returns the same evictions, and the buffers stay
    equal under further mutation.  ``before`` makes the buffer non-empty in
    some examples, ``capacity < length`` overflows it, ``step != 1`` is a
    non-contiguous range: all of those must take the per-id path."""
    if step > 0:
        ids = range(start, start + length * step, step)
    else:
        ids = range(start + length, start, step)
    bulk = SegmentBuffer(capacity=capacity)
    loop = SegmentBuffer(capacity=capacity)
    for seg in before:
        bulk.insert(seg)
        loop.insert(seg)
    evicted_loop = [out for out in map(loop.insert, ids) if out is not None]
    assert bulk.insert_many(ids) == evicted_loop
    assert _state(bulk) == _state(loop)
    _apply(bulk, after)
    _apply(loop, after)
    assert _state(bulk) == _state(loop)
    assert [bulk.position_from_tail(seg) for seg in bulk] == [
        loop.position_from_tail(seg) for seg in loop
    ]


def test_bulk_seeding_rejects_negative_ids_like_insert():
    buffer = SegmentBuffer(capacity=None)
    with pytest.raises(ValueError):
        buffer.insert_many(range(-2, 3))
    assert len(buffer) == 0 and buffer.bits == 0


def test_mirrored_buffer_seeding_writes_its_matrix_row():
    arrays = SegmentArrays(1, 4)
    mirrored = MirroredBuffer(None, arrays, 0)
    assert mirrored.insert_many(range(3, 9)) == []
    row = arrays.index[0].tolist()
    assert row == [0, 0, 0, 1, 2, 3, 4, 5, 6] + [0] * (len(row) - 9)
    plain = SegmentBuffer(capacity=None)
    plain.insert_many(range(3, 9))
    assert _state(mirrored) == _state(plain)
