"""Property-based differential tests for the vector-engine kernels.

The vector engine promises *bit-identity* with the scalar oracle.  The
session-level differential suite (``test_vector_equivalence.py``) checks
that promise end to end; this module attacks the individual kernels with
hypothesis-generated inputs far outside what any shipped scenario reaches:

* :class:`MirroredBuffer` / :class:`SegmentArrays` -- a buffer's matrix
  row is its index (insertion number + 1, 0 when not held) and must track
  a plain :class:`SegmentBuffer` under arbitrary insert/evict sequences;
* :func:`vectorized_priorities` -- must match ``priority_for_view``
  (``core/priority.py``) float for float;
* :func:`_greedy_masks` -- the bitmask supplier-allocation pass must
  reproduce ``greedy_supplier_assignment`` (``core/scheduler.py``),
  including queue carry-over between passes, which is how the engine
  replicates the two-pass budget allocation built on ``core/allocation.py``,
  as plain request rows whose ``rank`` sorts like ``(-priority, seg_id)``,
  and the normal finish's capped passes must keep the uncapped rows;
* :func:`batched_kernel` -- the flattened per-period pass must equal one
  :func:`vectorized_priorities` call per peer (supplier bitmasks for every
  candidate; priorities and stable priority order on the supplied ones) on
  ragged supplier / candidate counts.

All equality assertions are exact (``==`` on floats): any re-association
of floating-point work in the kernels is a bug, not noise.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import NeighbourView, Stream
from repro.core.priority import priority_for_view
from repro.core.scheduler import CandidateSegment, greedy_supplier_assignment
from repro.core.vector import (
    MirroredBuffer,
    SegmentArrays,
    VectorDecider,
    _greedy_masks,
    _Survivors,
    batched_kernel,
    vectorized_priorities,
)
from repro.streaming.buffer import SegmentBuffer

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
#: inserted-id sequences over a small id space so collisions and re-inserts
#: of evicted ids happen often.
buffer_ops = st.lists(st.integers(min_value=0, max_value=40), max_size=80)

capacities = st.one_of(st.none(), st.integers(min_value=1, max_value=12))

rates_st = st.floats(
    min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False
)


@st.composite
def priority_cases(draw):
    """Random supplier matrix + candidate set for the priority kernel."""
    k = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=9))
    rates = draw(st.lists(rates_st, min_size=k, max_size=k))
    caps = draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    candidates = sorted(
        draw(
            st.lists(
                st.integers(0, 400), min_size=m, max_size=m, unique=True
            )
        )
    )
    playback_id = draw(st.integers(0, 400))
    play_rate = draw(
        st.floats(min_value=0.25, max_value=16.0, allow_nan=False)
    )
    # every candidate keeps at least one supplier: the engine never asks for
    # the priority of a segment nobody advertises.
    columns = [
        draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k))
        for _ in range(m)
    ]
    positions = draw(
        st.lists(
            st.lists(st.integers(0, 120), min_size=m, max_size=m),
            min_size=k,
            max_size=k,
        )
    )
    return k, m, rates, caps, candidates, playback_id, play_rate, columns, positions


@st.composite
def greedy_cases(draw):
    """Random candidate/supplier sets for the greedy allocation pass."""
    k = draw(st.integers(min_value=1, max_value=6))
    supplier_ids = draw(
        st.lists(st.integers(0, 60), min_size=k, max_size=k, unique=True)
    )
    rates = draw(st.lists(rates_st, min_size=k, max_size=k))
    m = draw(st.integers(min_value=0, max_value=10))
    seg_ids = sorted(
        draw(st.lists(st.integers(0, 300), min_size=m, max_size=m, unique=True))
    )
    priorities = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    masks = [draw(st.integers(0, (1 << k) - 1)) for _ in range(m)]
    period = draw(st.floats(min_value=0.05, max_value=4.0, allow_nan=False))
    queued = draw(
        st.dictionaries(
            st.sampled_from(supplier_ids),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            max_size=k,
        )
    )
    initial_queue = queued if draw(st.booleans()) else None
    return supplier_ids, rates, seg_ids, priorities, masks, period, initial_queue


def _make_survivors(
    supplier_ids: List[int], rates: List[float]
) -> _Survivors:
    arrays = SegmentArrays(len(supplier_ids), 8)
    buffers = [
        MirroredBuffer(600, arrays, row) for row in range(len(supplier_ids))
    ]
    return _Survivors(supplier_ids, rates, buffers, 0)


def _scalar_candidates(
    order: List[int],
    seg_ids: List[int],
    priorities: List[float],
    masks: List[int],
    supplier_ids: List[int],
    rates: List[float],
) -> List[CandidateSegment]:
    views = [
        NeighbourView(
            node_id=supplier_ids[slot],
            send_rate=rates[slot],
            available=frozenset(),
        )
        for slot in range(len(supplier_ids))
    ]
    return [
        CandidateSegment(
            seg_id=seg_ids[index],
            priority=priorities[index],
            suppliers=tuple(
                views[slot]
                for slot in range(len(views))
                if masks[index] >> slot & 1
            ),
        )
        for index in order
    ]


# --------------------------------------------------------------------------- #
# bitmask buffer maps
# --------------------------------------------------------------------------- #
def _apply_alike(buffers, ops, inserted):
    """Insert the ids of ``ops`` into every buffer, checking they all answer
    alike; ``inserted`` gains each id an insert actually stored, so an id's
    insertion number is its last place in that list."""
    for seg_id in ops:
        if seg_id not in buffers[0]:
            inserted.append(seg_id)
        assert len({buffer.insert(seg_id) for buffer in buffers}) == 1


def _assert_row_is_the_index(arrays, row, reference, inserted):
    """Matrix row - 1 is the insertion number of every held id, 0 elsewhere."""
    numbers = {seg_id: number for number, seg_id in enumerate(inserted)}
    values = arrays.index[row]
    held = set(np.flatnonzero(values).tolist())
    assert held == set(reference.as_set())
    for seg_id in held:
        assert values[seg_id] - 1 == numbers[seg_id]


@settings(max_examples=300, deadline=None)
@given(ops=buffer_ops, capacity=capacities)
def test_mirrored_buffer_tracks_scalar_buffer(ops, capacity):
    """The buffer's matrix row is its index: it equals the scalar buffer's
    state exactly, with no flush in between."""
    scalar = SegmentBuffer(capacity=capacity)
    arrays = SegmentArrays(1, 8)
    mirrored = MirroredBuffer(capacity, arrays, 0)
    inserted = []
    _apply_alike([mirrored, scalar], ops, inserted)

    _assert_row_is_the_index(arrays, 0, scalar, inserted)
    assert mirrored.as_set() == scalar.as_set()
    assert list(mirrored) == list(scalar)
    assert len(mirrored) == len(scalar)
    assert mirrored.evicted_total == scalar.evicted_total


@settings(max_examples=300, deadline=None)
@given(
    seg_ids=st.lists(st.integers(0, 200), max_size=40),
    capacity=capacities,
)
def test_fifo_positions_recoverable_from_insert_index(seg_ids, capacity):
    """The rarity positions the engine derives from the index matrix
    (``counter + 1 - index``) match ``position_from_tail`` for every held
    segment."""
    arrays = SegmentArrays(1, 8)
    mirrored = MirroredBuffer(capacity, arrays, 0)
    for seg_id in seg_ids:
        mirrored.insert(seg_id)
    for seg_id in np.flatnonzero(arrays.index[0]).tolist():
        derived = int(mirrored._counter + 1 - arrays.index[0, seg_id])
        assert derived == mirrored.position_from_tail(seg_id)


@settings(max_examples=200, deadline=None)
@given(
    seg_ids=st.lists(st.integers(0, 200), max_size=40),
    extra_ops=buffer_ops,
    capacity=capacities,
)
def test_adopted_buffer_mirrors_existing_state(seg_ids, extra_ops, capacity):
    """``MirroredBuffer.adopt`` copies a live buffer's index into its row and
    the row stays the index under subsequent mutations."""
    original = SegmentBuffer(capacity=capacity)
    reference = SegmentBuffer(capacity=capacity)
    inserted = []
    _apply_alike([original, reference], seg_ids, inserted)

    arrays = SegmentArrays(2, 8)
    MirroredBuffer(capacity, arrays, 0)  # a neighbour row the adoption must not touch
    mirrored = MirroredBuffer.adopt(original, arrays, 1)
    _assert_row_is_the_index(arrays, 1, reference, inserted)

    _apply_alike([mirrored, reference], extra_ops, inserted)
    _assert_row_is_the_index(arrays, 1, reference, inserted)
    assert not arrays.index[0].any()
    assert list(mirrored) == list(reference)


# --------------------------------------------------------------------------- #
# vectorized priorities vs core/priority.py
# --------------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(case=priority_cases())
def test_vectorized_priorities_match_priority_for_view(case):
    (
        k,
        m,
        rates,
        caps,
        candidates,
        playback_id,
        play_rate,
        columns,
        positions,
    ) = case

    supply = np.zeros((k, m), dtype=bool)
    for i, column in enumerate(columns):
        for slot in column:
            supply[slot, i] = True
    positions_matrix = np.array(positions, dtype=np.int64)

    with np.errstate(divide="ignore", over="ignore"):
        vectorized = vectorized_priorities(
            np.array(candidates, dtype=np.int64),
            supply,
            np.array(rates, dtype=np.float64)[:, None],
            positions_matrix,
            np.array(caps, dtype=np.int64)[:, None],
            playback_id,
            play_rate,
        )

    views = [
        NeighbourView(
            node_id=1000 + slot,
            send_rate=rates[slot],
            available=frozenset(
                candidates[i] for i in range(m) if supply[slot, i]
            ),
            positions={
                candidates[i]: positions[slot][i]
                for i in range(m)
                if supply[slot, i]
            },
            buffer_capacity=caps[slot],
        )
        for slot in range(k)
    ]
    for i, seg_id in enumerate(candidates):
        suppliers = tuple(views[slot] for slot in range(k) if supply[slot, i])
        scalar = priority_for_view(seg_id, suppliers, playback_id, play_rate)
        assert float(vectorized[i]) == scalar, (
            f"seg={seg_id}: vector={vectorized[i]!r} scalar={scalar!r}"
        )


# --------------------------------------------------------------------------- #
# bitmask greedy allocation vs core/scheduler.py
# --------------------------------------------------------------------------- #
def _described(rows, order, seg_ids, priorities, n_old):
    """Request rows ``(rank, seg_id, supplier_id, completion_time)`` spelled
    out as ``(seg_id, priority, supplier_id, completion_time, stream)``: the
    members a row leaves implicit are read through ``order[rank]``."""
    described = []
    for rank, seg, supplier, when in rows:
        index = order[rank]
        assert seg == seg_ids[index]
        stream = Stream.NEW if index >= n_old else Stream.OLD
        described.append((seg, priorities[index], supplier, when, stream))
    return described


@settings(max_examples=300, deadline=None)
@given(case=greedy_cases())
def test_greedy_masks_matches_greedy_supplier_assignment(case):
    supplier_ids, rates, seg_ids, priorities, masks, period, initial_queue = case
    survivors = _make_survivors(supplier_ids, rates)
    order = np.argsort(-np.array(priorities), kind="stable").tolist()

    assigned_old, assigned_new, queue = _greedy_masks(
        order,
        seg_ids,
        masks,
        len(seg_ids),
        survivors,
        period,
        dict(initial_queue) if initial_queue else None,
    )
    assert assigned_new == []
    assigned_old = _described(assigned_old, order, seg_ids, priorities, len(seg_ids))

    scalar = greedy_supplier_assignment(
        _scalar_candidates(order, seg_ids, priorities, masks, supplier_ids, rates),
        period,
        initial_queue=initial_queue,
    )

    assert [
        (item.seg_id, item.priority, item.supplier_id, item.expected_receive_time)
        for item in scalar.assigned
    ] == [(seg, pri, supplier, when) for seg, pri, supplier, when, _ in assigned_old]
    assert all(stream is Stream.OLD for *_, stream in assigned_old)
    assert queue == scalar.supplier_queue
    assigned_ids = {seg for seg, *_ in assigned_old}
    assert scalar.unassigned == [
        seg_ids[index] for index in order if seg_ids[index] not in assigned_ids
    ]


@settings(max_examples=200, deadline=None)
@given(case=greedy_cases(), data=st.data())
def test_greedy_masks_stream_split_tags(case, data):
    """Candidates at order positions >= n_old come back in the NEW list, in
    the same relative processing order, with the same combined assignment."""
    supplier_ids, rates, seg_ids, priorities, masks, period, initial_queue = case
    n_old = data.draw(st.integers(0, len(seg_ids)))
    survivors = _make_survivors(supplier_ids, rates)
    order = np.argsort(-np.array(priorities), kind="stable").tolist()

    assigned_old, assigned_new, queue = _greedy_masks(
        order,
        seg_ids,
        masks,
        n_old,
        survivors,
        period,
        dict(initial_queue) if initial_queue else None,
    )
    assigned_old = _described(assigned_old, order, seg_ids, priorities, n_old)
    assigned_new = _described(assigned_new, order, seg_ids, priorities, n_old)
    assert all(stream is Stream.OLD for *_, stream in assigned_old)
    assert all(stream is Stream.NEW for *_, stream in assigned_new)
    old_ids = {seg_ids[index] for index in range(n_old)}
    assert all(seg in old_ids for seg, *_ in assigned_old)
    assert all(seg not in old_ids for seg, *_ in assigned_new)

    scalar = greedy_supplier_assignment(
        _scalar_candidates(order, seg_ids, priorities, masks, supplier_ids, rates),
        period,
        initial_queue=initial_queue,
    )
    assert queue == scalar.supplier_queue
    # the split lists interleave back into the scalar processing order
    merged = {
        seg: (pri, supplier, when)
        for seg, pri, supplier, when, _ in assigned_old + assigned_new
    }
    assert merged == {
        item.seg_id: (item.priority, item.supplier_id, item.expected_receive_time)
        for item in scalar.assigned
    }
    scalar_order = [item.seg_id for item in scalar.assigned]
    assert [seg for seg, *_ in assigned_old] == [
        seg for seg in scalar_order if seg in old_ids
    ]
    assert [seg for seg, *_ in assigned_new] == [
        seg for seg in scalar_order if seg not in old_ids
    ]


@settings(max_examples=200, deadline=None)
@given(case=greedy_cases(), data=st.data())
def test_greedy_masks_rank_sorts_like_priority_then_id(case, data):
    """What lets the fast finish merge and trim with a bare ``sort()``: rows
    sorted by ``rank`` are the rows sorted by ``(-priority, seg_id)``."""
    supplier_ids, rates, seg_ids, priorities, masks, period, initial_queue = case
    n_old = data.draw(st.integers(0, len(seg_ids)))
    order = np.argsort(-np.array(priorities), kind="stable").tolist()

    assigned_old, assigned_new, _ = _greedy_masks(
        order, seg_ids, masks, n_old, _make_survivors(supplier_ids, rates), period, initial_queue
    )
    rows = assigned_new + assigned_old
    assert sorted(rows) == sorted(
        rows, key=lambda row: (-priorities[order[row[0]]], row[1])
    )


@settings(max_examples=300, deadline=None)
@given(
    case=greedy_cases(),
    data=st.data(),
    capacity=st.integers(1, 12),
)
def test_capped_normal_passes_keep_the_uncapped_rows(case, data, capacity):
    """The normal finish stops each pass once it holds the rows it can keep
    (``capacity``, then ``remaining``): the same rows as running both passes
    to the end and trimming, because pass 2 only runs when pass 1 kept fewer
    than ``capacity`` rows and so handed over the whole supplier queue."""
    supplier_ids, rates, seg_ids, _, masks, period, _ = case
    n_old = data.draw(st.integers(0, len(seg_ids)))
    n_wanted_old = n_old + data.draw(st.integers(0, 4))  # + supplier-less old ids
    survivors = _make_survivors(supplier_ids, rates)

    old, _, queue = _greedy_masks(range(n_old), seg_ids, masks, n_old, survivors, period)
    expected = old[:capacity]
    remaining = capacity - min(capacity, n_wanted_old)
    if remaining > 0:
        _, new, _ = _greedy_masks(
            range(n_old, len(seg_ids)), seg_ids, masks, n_old, survivors, period, queue
        )
        expected += new[:remaining]

    peer = SimpleNamespace(tau=period, requests_issued=0)
    capped = VectorDecider()._normal_finish(
        peer, capacity, survivors, seg_ids, masks, n_old, n_wanted_old
    )
    assert capped == expected
    assert peer.requests_issued == len(expected)


# --------------------------------------------------------------------------- #
# the batched per-period kernel vs one vectorized_priorities call per peer
# --------------------------------------------------------------------------- #
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    supplier_counts=st.lists(st.integers(0, 12), min_size=0, max_size=4),
    fast=st.booleans(),
)
def test_batched_kernel_matches_per_peer_kernels(seed, supplier_counts, fast):
    """Ragged peers in one flattened pass: every example also carries a
    peer without suppliers and one with more than 64 (multi-word bitmasks).
    Masks equal the dense per-peer reference for every candidate (0 off the
    supplied list); priorities and order equal it on the supplied ones."""
    rng = np.random.default_rng(seed)
    supplier_counts = [0, int(rng.integers(65, 80)), *supplier_counts]
    rng.shuffle(supplier_counts)
    n_segments = 48
    arrays = SegmentArrays(80, n_segments)
    pool = [MirroredBuffer(int(rng.integers(1, 30)), arrays, row) for row in range(80)]
    for buffer in pool:
        for seg_id in rng.integers(0, n_segments, size=rng.integers(0, 40)).tolist():
            buffer.insert(seg_id)

    survivors, candidates, job_of, visible = [], [], [], []
    for job, k in enumerate(supplier_counts):
        slots = rng.choice(len(pool), size=k, replace=False).tolist()
        rates = np.round(rng.random(k) * rng.choice([0.0, 8.0, 25.0], size=k), 3).tolist()
        survivors.append(_Survivors(slots, rates, [pool[slot] for slot in slots], 0))
        # the supplier-less peers always want something: their (empty) slot
        # runs must not disturb the peers before and after them
        density = rng.choice([0.0, 0.1, 0.5]) if k else 0.5
        wanted = np.flatnonzero(rng.random(n_segments) < density)
        candidates.extend(wanted.tolist())
        job_of.extend([job] * wanted.size)
        visible.extend((rng.random(wanted.size) < 0.8).tolist())
    playback_ids = rng.integers(0, n_segments, size=len(supplier_counts))
    play_rates = rng.choice([0.5, 10.0, 12.5], size=len(supplier_counts))
    candidates = np.array(candidates, dtype=np.int64)
    job_of = np.array(job_of, dtype=np.intp)
    visible = np.array(visible, dtype=bool)

    with np.errstate(divide="ignore"):
        supplied, priorities, order, masks = batched_kernel(
            arrays, survivors, candidates, job_of, visible, playback_ids, play_rates, fast
        )
        assert len(masks) == supplied.size and all(masks)
        dense = [0] * candidates.size
        for position, mask in zip(supplied.tolist(), masks):
            dense[position] = mask
        for job, entry in enumerate(survivors):
            mine = np.flatnonzero(job_of == job)
            if mine.size == 0:
                continue
            lo, hi = int(mine[0]), int(mine[-1]) + 1
            if not entry.ids:
                assert not any(dense[lo:hi])
                continue
            rows = np.array(entry.rows)[:, None]
            held = arrays.index[rows, candidates[lo:hi]]
            supply = (held != 0) & visible[lo:hi]
            assert dense[lo:hi] == [
                sum(1 << slot for slot in np.flatnonzero(column).tolist())
                for column in supply.T
            ]
            if not fast:
                assert priorities is None and order is None
                continue
            first, end = np.searchsorted(supplied, [lo, hi]).tolist()
            offered = supply.any(axis=0)
            assert (supplied[first:end] - lo).tolist() == np.flatnonzero(offered).tolist()
            counters = np.array([b._counter for b in entry.buffers])[:, None]
            expected = vectorized_priorities(
                candidates[lo:hi],
                supply,
                np.array(entry.rates)[:, None],
                counters + 1 - held,
                np.array(entry.caps)[:, None],
                int(playback_ids[job]),
                float(play_rates[job]),
            )[offered]
            assert priorities[first:end] == expected.tolist()
            assert order[first:end] == np.argsort(-expected, kind="stable").tolist()
