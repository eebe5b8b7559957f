"""The per-node FIFO segment buffer.

Every node keeps a buffer of up to ``B`` segments (the paper uses
``B = 600``).  The replacement strategy is FIFO: when a new segment is
inserted into a full buffer, the oldest inserted segment is evicted.  The
buffer exposes the *position from the tail* of each segment -- the quantity
``p_ij`` that the rarity term (Eq. 8) consumes: position 1 is the most
recently inserted segment, position ``len(buffer)`` is the next to be
evicted.

A buffer is three flat structures, no object per segment:

* a *presence bitmap* -- one Python ``int`` whose bit ``i`` is set exactly
  while segment ``i`` is held.  It is the membership test and the paper's
  buffer map (Section 5.3), the one representation a map travels in: a
  pull is ``buffer.bits & window``, the range queries and
  :meth:`SegmentBuffer.contains_range` are mask operations;
* an ``array('i')`` *queue* of the held ids in insertion order, read from a
  head pointer (eviction advances it; the dead prefix is cut off once it is
  half the array);
* an ``int32`` *index*, ``index[seg] = insertion number + 1`` (0: not held).
  :class:`FifoPositions` answers the ``p_ij`` lookups from it lazily, only
  for the (segment, supplier) pairs the priority term asks about.  On the
  array engine this index is the node's row of the decider's matrix
  (:class:`repro.core.vector.MirroredBuffer`), so there is one copy.

Segment ids are therefore non-negative.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from typing import Iterable, Iterator, List, Optional

__all__ = [
    "SegmentBuffer",
    "FifoPositions",
    "StaleBufferMapError",
    "popcount",
    "set_bits",
    "range_mask",
]


def popcount(bits: int) -> int:
    """Number of 1-bits of a non-negative int (``int.bit_count`` needs 3.10)."""
    return bin(bits).count("1")


def set_bits(bits: int) -> List[int]:
    """Ascending indices of the 1-bits of a non-negative int."""
    out: List[int] = []
    index = 0
    while bits:
        skip = (bits & -bits).bit_length() - 1
        index += skip
        out.append(index)
        index += 1
        bits >>= skip + 1
    return out


def range_mask(lo: int, hi: int) -> int:
    """Bitmap with exactly the bits of the inclusive id range ``[lo, hi]`` set.

    Empty (``0``) when ``hi < lo``; ids below zero do not exist.
    """
    lo = max(lo, 0)
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


class StaleBufferMapError(LookupError):
    """A position was asked of a map whose owner no longer holds that segment
    the way it did when the map was taken."""


class FifoPositions(Mapping):
    """FIFO positions (1 = newest) of the segments in ``bits`` -- a subset of
    ``buffer.bits`` -- frozen at the instant of construction.

    A read-only mapping ``seg_id -> p_ij`` evaluated on lookup.  What the
    answer depends on is captured as values -- the bitmap and the insertion
    counter -- so a lookup made after the owner moved on either returns what
    it would have returned at construction or raises
    :class:`StaleBufferMapError`; it never reports a different position.
    This is the one implementation of the position rule
    (:meth:`SegmentBuffer.position_from_tail` goes through it).
    """

    __slots__ = ("_buffer", "_bits", "_counter")

    def __init__(self, buffer: "SegmentBuffer", bits: int) -> None:
        self._buffer = buffer
        self._bits = bits
        self._counter = buffer._counter

    def __getitem__(self, seg_id: int) -> int:
        if seg_id < 0 or not self._bits >> seg_id & 1:
            raise KeyError(seg_id)
        # A bit of the map was set in the owner's bitmap once, so the index
        # covers ``seg_id`` (it never shrinks).
        number = self._buffer._index[seg_id]
        if not number or number > self._counter:
            raise StaleBufferMapError(
                f"segment {seg_id} was evicted after this buffer map was taken"
            )
        # FIFO: if ``seg_id`` is present, every later insertion is present
        # too (evictions happen strictly in insertion order), so the
        # insertion-counter difference equals the in-buffer position.
        return self._counter + 1 - number

    def __iter__(self) -> Iterator[int]:
        return iter(set_bits(self._bits))

    def __len__(self) -> int:
        return popcount(self._bits)


class SegmentBuffer:
    """A FIFO set of segment ids with bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum number of segments held (``B``).  ``None`` means unbounded
        (used by source nodes, which never evict their own stream).
    """

    def __init__(self, capacity: Optional[int] = 600) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self._capacity = capacity
        #: held ids in insertion order from ``_head`` on (before it: evicted)
        self._queue = array("i")
        self._head = 0
        #: ``seg_id -> insertion number + 1``; 0 = not held
        self._index = array("i")
        self._bits = 0
        self._counter = 0
        self.evicted_total = 0

    def _grow_index(self, n: int) -> None:
        """Make the index cover ids ``< n`` (and 64 more, zero-filled)."""
        index = self._index
        index.frombytes(bytes(index.itemsize * (n + 64 - len(index))))

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, seg_id: int) -> Optional[int]:
        """Insert ``seg_id``; return the evicted id (if any).

        Re-inserting an id that is already present is a no-op (and returns
        ``None``): duplicate deliveries do not change eviction order.
        """
        if self._bits >> seg_id & 1:  # a negative id raises here, unchanged
            return None
        return self._append(seg_id)

    def _append(self, seg_id: int) -> Optional[int]:
        """:meth:`insert` of an id known to be absent (the caller tested it)."""
        self._bits |= 1 << seg_id
        self._counter += 1
        if seg_id >= len(self._index):
            self._grow_index(seg_id + 1)
        self._index[seg_id] = self._counter
        queue = self._queue
        queue.append(seg_id)
        head = self._head
        if self._capacity is None or len(queue) - head <= self._capacity:
            return None
        evicted = queue[head]
        self._index[evicted] = 0
        self._bits ^= 1 << evicted
        self.evicted_total += 1
        head += 1
        if 2 * head > len(queue):
            del queue[:head]
            head = 0
        self._head = head
        return evicted

    def insert_many(self, seg_ids: Iterable[int]) -> List[int]:
        """Insert several ids (in iteration order); return all evicted ids.

        A contiguous ascending ``range`` going into an empty buffer that has
        room for all of it (warm-up seeding) is stored in one step; the
        result is what the per-id loop would leave behind.
        """
        if (
            type(seg_ids) is range
            and seg_ids.step == 1
            and seg_ids.start >= 0
            and not len(self)
            and (self._capacity is None or len(seg_ids) <= self._capacity)
        ):
            start, stop, counter = seg_ids.start, seg_ids.stop, self._counter
            if stop > len(self._index):
                self._grow_index(stop)
            self._index[start:stop] = array("i", range(counter + 1, counter + 1 + len(seg_ids)))
            self._queue = array("i", seg_ids)
            self._head = 0
            self._bits |= range_mask(start, stop - 1)
            self._counter += len(seg_ids)
            return []
        evicted: List[int] = []
        for seg_id in seg_ids:
            out = self.insert(seg_id)
            if out is not None:
                evicted.append(out)
        return evicted

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> Optional[int]:
        """Configured capacity ``B`` (``None`` = unbounded)."""
        return self._capacity

    @property
    def bits(self) -> int:
        """The presence bitmap: bit ``i`` is set iff segment ``i`` is held."""
        return self._bits

    def __len__(self) -> int:
        return len(self._queue) - self._head

    def __contains__(self, seg_id: int) -> bool:
        return self.contains(seg_id)

    def __iter__(self) -> Iterator[int]:
        """Iterate ids from oldest to newest insertion."""
        return iter(self._queue[self._head :])

    def contains(self, seg_id: int) -> bool:
        """Membership test (alias of ``in`` for readability at call sites)."""
        return seg_id >= 0 and self._bits >> seg_id & 1 == 1

    def contains_all(self, seg_ids: Iterable[int]) -> bool:
        """Whether every id in ``seg_ids`` is present."""
        return all(self.contains(seg_id) for seg_id in seg_ids)

    def contains_range(self, lo: int, hi: int) -> bool:
        """Whether every id of the inclusive range ``[lo, hi]`` is present."""
        mask = range_mask(lo, hi)
        return self._bits & mask == mask

    def newest(self) -> Optional[int]:
        """The most recently inserted id, or ``None`` when empty."""
        return self._queue[-1] if len(self) else None

    def oldest(self) -> Optional[int]:
        """The id that would be evicted next, or ``None`` when empty."""
        return self._queue[self._head] if len(self) else None

    def position_from_tail(self, seg_id: int) -> int:
        """FIFO position of ``seg_id`` counted from the insertion end.

        1 = newest insertion; ``len(self)`` = oldest (next to be evicted).
        Raises ``KeyError`` for absent ids.
        """
        return FifoPositions(self, self._bits)[seg_id]

    def ids_in_range(self, lo: int, hi: int) -> List[int]:
        """Sorted list of held ids in the inclusive range ``[lo, hi]``."""
        return set_bits(self._bits & range_mask(lo, hi))

    def missing_in_range(self, lo: int, hi: int) -> List[int]:
        """Sorted list of ids in ``[lo, hi]`` **not** held."""
        return set_bits(range_mask(lo, hi) & ~self._bits)

    def as_set(self) -> frozenset[int]:
        """Frozen snapshot of all held ids."""
        return frozenset(self._queue[self._head :])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentBuffer(size={len(self)}, capacity={self._capacity}, "
            f"newest={self.newest()}, oldest={self.oldest()})"
        )
