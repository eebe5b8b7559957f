"""Shared data model for source-switch algorithms.

The types in this module form the contract between the streaming simulator
(:mod:`repro.streaming`) and the switch algorithms (:mod:`repro.core`):

* :class:`Stream` distinguishes the *old* source ``S1`` from the *new*
  source ``S2``;
* :class:`NeighbourView` is what a peer knows about one neighbour after the
  periodic buffer-map exchange: which needed segments the neighbour holds
  (an availability bitmap, as on the wire), at which FIFO position, and at
  what rate it can send;
* :class:`LocalView` bundles the peer's own playback state and all
  neighbour views for one scheduling period;
* :class:`ScheduleDecision` is the algorithm's output: an ordered list of
  :class:`SegmentRequest` plus the diagnostic quantities (``I1``, ``I2``,
  ``r1``, allocation case) that the tests and the model-validation
  benchmarks inspect.  A session does not carry these objects around: its
  wire format is plain request rows (``streaming/session.py:RequestRow``),
  into which the reference decider flattens a decision and which the array
  engine emits directly.

Algorithms must be pure functions of the :class:`LocalView`; they may keep
internal state across periods (both paper algorithms are stateless, but the
interface allows stateful extensions such as request retrying policies).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Tuple

__all__ = [
    "Stream",
    "NeighbourView",
    "LocalView",
    "SegmentRequest",
    "ScheduleDecision",
    "SwitchAlgorithm",
]


class Stream(enum.Enum):
    """Which source a segment belongs to."""

    OLD = "S1"
    NEW = "S2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class NeighbourView:
    """A peer's snapshot of one neighbour for the current scheduling period.

    The neighbour's availability is held as a bitmap (:attr:`bits`), the form
    a buffer map has on the wire; ``available`` is accepted at construction
    and exposed as a frozenset for code that prefers ids.

    Attributes
    ----------
    node_id:
        The neighbour's identifier.
    send_rate:
        ``R(j)``: the rate (segments/second) at which this neighbour is
        expected to be able to send to the local peer during this period.
    bits:
        Availability bitmap: bit ``i`` is set iff segment ``i`` (within the
        local peer's window of interest) is present in the neighbour's
        buffer according to the latest buffer map.
    available:
        The same information as a frozenset of segment ids (derived from
        :attr:`bits` on first use when the view was built from a bitmap).
    positions:
        For each available segment id, its FIFO position ``p_ij`` counted
        from the buffer tail (the insertion end): 1 means newest; values
        close to the buffer capacity mean the segment is about to be
        evicted.  Used by the rarity term (Eq. 8).  Any read-only mapping;
        the simulator passes one that is evaluated on lookup.
    buffer_capacity:
        The neighbour's buffer capacity ``B`` in segments.
    """

    __slots__ = ("node_id", "send_rate", "bits", "positions", "buffer_capacity", "_available")

    def __init__(
        self,
        node_id: int,
        send_rate: float,
        available: Iterable[int] = (),
        positions: Optional[Mapping[int, int]] = None,
        buffer_capacity: int = 600,
        *,
        bits: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.send_rate = send_rate
        if bits is None:
            self._available: Optional[frozenset[int]] = frozenset(available)
            bits = 0
            for seg_id in self._available:
                bits |= 1 << seg_id
        else:
            self._available = None
        self.bits = bits
        self.positions: Mapping[int, int] = {} if positions is None else positions
        self.buffer_capacity = buffer_capacity

    @property
    def available(self) -> frozenset[int]:
        """Segment ids the neighbour advertises."""
        if self._available is None:
            # Imported here: ``repro.streaming`` imports this module.
            from repro.streaming.buffer import set_bits

            self._available = frozenset(set_bits(self.bits))
        return self._available

    def has(self, seg_id: int) -> bool:
        """Whether the neighbour advertises ``seg_id``."""
        return seg_id >= 0 and bool(self.bits >> seg_id & 1)

    def position_of(self, seg_id: int) -> int:
        """FIFO position of ``seg_id`` (defaults to newest when unknown)."""
        return int(self.positions.get(seg_id, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(node_id={self.node_id}, send_rate={self.send_rate}, "
            f"bits={self.bits:#x}, buffer_capacity={self.buffer_capacity})"
        )


@dataclass(frozen=True)
class LocalView:
    """Everything one peer sees locally at the start of a scheduling period.

    Attributes
    ----------
    now:
        Simulation time (seconds) at which the view was taken.
    tau:
        Data scheduling period length (seconds).
    play_rate:
        ``p``: segments played per second.
    inbound_rate:
        ``I``: the peer's total inbound rate (segments/second).
    playback_id:
        ``id_play``: the id of the segment being played at this moment
        (the next segment the player will consume).
    startup_quota_old:
        ``Q``: consecutive segments required to (re)start playback of the
        old stream after a stall.
    startup_quota_new:
        ``Qs``: segments of the new source required before its playback can
        start (the paper configures ``Qs >> Q``).
    old_needed:
        Undelivered segment ids of the old source the peer still must fetch
        (``Q1 = len(old_needed)``).
    new_needed:
        Undelivered segment ids among the first ``Qs`` segments of the new
        source (``Q2 = len(new_needed)``).
    id_end:
        Id of the old source's final segment, or ``None`` while unknown.
    id_begin:
        Id of the new source's first segment, or ``None`` while unknown.
    neighbours:
        Snapshot of each neighbour (see :class:`NeighbourView`).
    """

    now: float
    tau: float
    play_rate: float
    inbound_rate: float
    playback_id: int
    startup_quota_old: int
    startup_quota_new: int
    old_needed: frozenset[int]
    new_needed: frozenset[int]
    id_end: Optional[int]
    id_begin: Optional[int]
    neighbours: Tuple[NeighbourView, ...]

    # ------------------------------------------------------------------ #
    # convenience accessors used by algorithms and tests
    # ------------------------------------------------------------------ #
    @property
    def q1(self) -> int:
        """``Q1``: number of undelivered old-source segments."""
        return len(self.old_needed)

    @property
    def q2(self) -> int:
        """``Q2``: number of undelivered new-source startup segments."""
        return len(self.new_needed)

    def stream_of(self, seg_id: int) -> Stream:
        """Classify a segment id as belonging to the old or new stream."""
        if self.id_begin is not None and seg_id >= self.id_begin:
            return Stream.NEW
        if self.id_end is not None and seg_id > self.id_end:
            return Stream.NEW
        return Stream.OLD

    @cached_property
    def supply_bits(self) -> int:
        """Union of the neighbours' maps: bit ``i`` is set iff at least one
        neighbour advertises segment ``i``."""
        union = 0
        for neighbour in self.neighbours:
            union |= neighbour.bits
        return union

    def suppliers_of(self, seg_id: int) -> Tuple[NeighbourView, ...]:
        """All neighbours whose snapshot advertises ``seg_id``."""
        bit = 1 << seg_id
        return tuple([n for n in self.neighbours if n.bits & bit])

    def needed(self) -> frozenset[int]:
        """Union of old and new needed segment ids."""
        return self.old_needed | self.new_needed

    def capacity_segments(self) -> int:
        """Whole segments the peer can receive this period (``I * tau``)."""
        return max(0, int(round(self.inbound_rate * self.tau)))


@dataclass(frozen=True)
class SegmentRequest:
    """One segment request issued for the next scheduling period.

    Attributes
    ----------
    seg_id:
        Requested segment id.
    supplier_id:
        Neighbour chosen to supply the segment.
    stream:
        Stream the segment belongs to (old/new source).
    expected_receive_time:
        The scheduler's estimate of when the segment will have arrived,
        measured from the start of the period (seconds); purely diagnostic.
    """

    seg_id: int
    supplier_id: int
    stream: Stream
    expected_receive_time: float = 0.0


@dataclass(frozen=True)
class ScheduleDecision:
    """Output of a switch algorithm for one scheduling period.

    Attributes
    ----------
    requests:
        Ordered segment requests (the order encodes priority; the simulator
        issues them in this order so that, under supplier-side contention,
        high-priority segments are served first).
    i1 / i2:
        The inbound rate allocated to the old / new stream
        (segments/second).
    r1 / r2:
        The unconstrained optimum of the model (Eq. 4), when it was
        computed; ``None`` for decisions that never evaluated the model
        (e.g. the normal algorithm or single-stream periods).
    o1 / o2:
        The available outbound rates towards the old / new stream
        (``|O1|/tau`` and ``|O2|/tau`` in the paper's notation).
    case:
        Which of the four allocation cases applied (see
        :class:`repro.core.allocation.AllocationCase`), or ``None``.
    """

    requests: Tuple[SegmentRequest, ...]
    i1: float = 0.0
    i2: float = 0.0
    r1: Optional[float] = None
    r2: Optional[float] = None
    o1: float = 0.0
    o2: float = 0.0
    case: Optional["AllocationCase"] = None  # noqa: F821 - forward ref, see allocation.py

    @property
    def old_requests(self) -> Tuple[SegmentRequest, ...]:
        """Requests targeting the old source's stream."""
        return tuple(r for r in self.requests if r.stream is Stream.OLD)

    @property
    def new_requests(self) -> Tuple[SegmentRequest, ...]:
        """Requests targeting the new source's stream."""
        return tuple(r for r in self.requests if r.stream is Stream.NEW)

    def requested_ids(self) -> frozenset[int]:
        """The set of requested segment ids."""
        return frozenset(r.seg_id for r in self.requests)


class SwitchAlgorithm(ABC):
    """Strategy interface for per-peer request scheduling.

    A switch algorithm is invoked once per scheduling period for every peer
    that has not yet completed its source switch (and, in this
    implementation, also for ordinary single-stream periods so the same
    scheduling path is exercised before and after the switch).
    """

    #: short machine-readable name used in reports and benchmark tables
    name: str = "abstract"

    @abstractmethod
    def schedule(self, view: LocalView) -> ScheduleDecision:
        """Compute the segment requests for the period described by ``view``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
