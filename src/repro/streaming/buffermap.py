"""Buffer-map snapshots and their wire-size accounting.

Every scheduling period each node pulls a *buffer map* from each of its
``M`` neighbours: a bitmap describing which segments the neighbour holds.
The paper's overhead accounting (Section 5.3) encodes one map as

* 600 bits of availability bitmap (one bit per buffer slot, ``B = 600``),
* 20 bits for the id of the first segment in the buffer (enough for one
  full day of streaming at ``p = 10`` segments/second),

i.e. **620 bits per neighbour per period**, which against 30 kbit segments
works out to roughly 1 % overhead when the delivery rate matches the
playback rate.

:class:`BufferMapSnapshot` is the in-simulator representation, and it is a
bitmap too: the owner's presence bitmap (one Python ``int``, maintained by
:class:`~repro.streaming.buffer.SegmentBuffer`) AND-ed with the requesting
peer's window of interest, so a pull costs a few word operations however
many segments the window spans.  The FIFO positions the rarity term needs
come from a :class:`~repro.streaming.buffer.FifoPositions` view that is
evaluated only for the (segment, supplier) pairs the priority term asks
about and is pinned to the instant of the pull.
:func:`buffer_map_bits` provides the wire size that the overhead metric
charges for the exchange.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.base import NeighbourView
from repro.streaming.buffer import FifoPositions, SegmentBuffer, range_mask

__all__ = [
    "AVAILABILITY_BITS_PER_SLOT",
    "OFFSET_BITS",
    "UNBOUNDED_CAPACITY",
    "buffer_map_bits",
    "BufferMapSnapshot",
    "snapshot_buffer",
]

#: One availability bit per buffer slot.
AVAILABILITY_BITS_PER_SLOT: int = 1

#: Bits used to encode the id of the first segment in the buffer.  The paper
#: sizes this at 20 bits: a source emits at most 10*3600*24 = 864 000
#: segments per day, and 2**19 < 864 000 < 2**20.
OFFSET_BITS: int = 20

#: Capacity advertised for unbounded (source) buffers so that the rarity
#: term treats their segments as never endangered.
UNBOUNDED_CAPACITY: int = 10**9


def buffer_map_bits(buffer_capacity: int, *, offset_bits: int = OFFSET_BITS) -> int:
    """Wire size (bits) of one buffer-map message for a buffer of ``B`` slots."""
    if buffer_capacity <= 0:
        raise ValueError(f"buffer_capacity must be positive, got {buffer_capacity}")
    return buffer_capacity * AVAILABILITY_BITS_PER_SLOT + offset_bits


class BufferMapSnapshot(NeighbourView):
    """What a peer learns about one neighbour from a buffer-map pull.

    A :class:`~repro.core.base.NeighbourView` (the part the switch algorithm
    reads: availability bitmap, positions, capacity, send rate) plus what
    only the protocol layer needs.

    Attributes
    ----------
    owner_id:
        The neighbour the map describes (alias of ``node_id``).
    bits / available:
        The availability bitmap restricted to the requesting peer's window
        of interest, and the same as a frozenset of segment ids.
    positions:
        FIFO position (from the insertion end) of each available id.
    buffer_capacity:
        The neighbour's buffer capacity ``B``.
    send_rate:
        The neighbour's advertised per-peer sending rate ``R(j)``
        (segments/second); carried with the map because the paper's
        scheduler needs it and real systems piggyback it on the exchange.
    switch_info:
        ``(id_end, id_begin)`` when the neighbour is aware of the source
        switch **and** can prove it (it is a source, or it holds at least
        one new-source segment); ``None`` otherwise.  This mirrors the
        paper's rule that a node learns about the switch by *discovering
        data segments of a new source at its neighbours*.
    wire_bits:
        Size of the exchanged message in bits (for the overhead metric).
    """

    __slots__ = ("switch_info", "wire_bits")

    def __init__(
        self,
        owner_id: int,
        available: Iterable[int] = (),
        positions: Optional[Mapping[int, int]] = None,
        buffer_capacity: int = 600,
        send_rate: float = 0.0,
        switch_info: Optional[Tuple[int, int]] = None,
        wire_bits: int = 620,
        *,
        bits: Optional[int] = None,
    ) -> None:
        super().__init__(owner_id, send_rate, available, positions, buffer_capacity, bits=bits)
        self.switch_info = switch_info
        self.wire_bits = wire_bits

    @property
    def owner_id(self) -> int:
        """The neighbour the map describes."""
        return self.node_id


def snapshot_buffer(
    owner_id: int,
    buffer: SegmentBuffer,
    windows: Sequence[Tuple[int, int]],
    *,
    send_rate: float,
    switch_info: Optional[Tuple[int, int]] = None,
    advertised_capacity: Optional[int] = None,
    wire_bits: Optional[int] = None,
) -> BufferMapSnapshot:
    """Build a :class:`BufferMapSnapshot` of ``buffer`` for the given windows.

    Parameters
    ----------
    owner_id:
        Node id of the buffer's owner.
    buffer:
        The owner's segment buffer.
    windows:
        Inclusive ``(lo, hi)`` id ranges the requesting peer cares about;
        only ids inside some window are advertised by the snapshot (the
        wire message is a full bitmap regardless -- its size does not depend
        on the windows).
    send_rate:
        Advertised sending rate ``R(j)`` towards the requesting peer.
    switch_info:
        ``(id_end, id_begin)`` if the owner can announce the switch.
    advertised_capacity:
        Buffer capacity ``B`` announced to the peer (for the rarity term).
        Defaults to the buffer's real capacity; source nodes with unbounded
        buffers advertise a very large value so their segments never look
        endangered (a source never evicts its own stream).
    wire_bits:
        Wire size of the map message; defaults to the bitmap size for the
        advertised capacity (sources advertise the standard peer bitmap so
        overhead accounting matches the paper's 620-bit figure).
    """
    window = 0
    for lo, hi in windows:
        window |= range_mask(lo, hi)
    bits = buffer.bits & window
    if advertised_capacity is None:
        advertised_capacity = (
            buffer.capacity if buffer.capacity is not None else UNBOUNDED_CAPACITY
        )
    if wire_bits is None:
        reference = buffer.capacity if buffer.capacity is not None else 600
        wire_bits = buffer_map_bits(reference)
    return BufferMapSnapshot(
        owner_id=owner_id,
        bits=bits,
        positions=FifoPositions(buffer, bits),
        buffer_capacity=advertised_capacity,
        send_rate=send_rate,
        switch_info=switch_info,
        wire_bits=wire_bits,
    )
