"""Per-segment request priorities (Section 4, Eq. 6--9).

For every candidate segment ``D_i`` a peer computes:

* **urgency** -- the risk of missing the playback deadline::

      R_i       = max_j R_ij                      (Eq. 6)
      t_i       = (id_i - id_play) / p - 1 / R_i  (Eq. 7, deadline slack)
      urgency_i = 1 / t_i

  A segment whose deadline slack is non-positive is already (about to be)
  late; its urgency is capped at :data:`URGENCY_CAP` rather than infinity so
  that late segments still sort among themselves by rarity.

* **rarity** -- the probability that the segment will soon be evicted from
  *all* of its suppliers' FIFO buffers (Eq. 8)::

      rarity_i = prod_j ( p_ij / B )

  where ``p_ij`` is the segment's position counted from the buffer tail
  (the insertion end): a position close to ``B`` means the segment is close
  to the eviction end in that supplier's buffer.  The paper argues this is
  more informative than the traditional ``1 / n_i`` rarity (one over the
  number of suppliers).

* **priority** -- ``max(urgency_i, rarity_i)`` (Eq. 9).

All functions are pure and operate on plain numbers /
:class:`~repro.core.base.NeighbourView` sequences so they can be
property-tested directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.base import NeighbourView

__all__ = [
    "URGENCY_CAP",
    "max_receive_rate",
    "deadline_slack",
    "urgency",
    "rarity",
    "request_priority",
    "priority_for_view",
]

#: Finite stand-in for "infinite" urgency when a segment's deadline slack is
#: non-positive.  Any value much larger than 1 (the rarity ceiling) works;
#: using a finite cap keeps sort keys well-defined and lets equally-late
#: segments be ordered by their id (earliest deadline first) downstream.
URGENCY_CAP: float = 1.0e6


def max_receive_rate(rates: Iterable[float]) -> float:
    """``R_i = max_j R_ij`` (Eq. 6); zero when there is no supplier."""
    rates = list(rates)
    return max(rates) if rates else 0.0


def deadline_slack(seg_id: int, playback_id: int, play_rate: float, receive_rate: float) -> float:
    """``t_i``: expected time margin before ``seg_id`` misses its deadline (Eq. 7).

    ``(id_i - id_play)/p`` is when the player will need the segment and
    ``1/R_i`` is how long the (fastest) transfer would take.  A non-positive
    slack means the segment cannot arrive in time even from its fastest
    supplier.
    """
    if play_rate <= 0:
        raise ValueError(f"play_rate must be positive, got {play_rate}")
    playback_distance = (seg_id - playback_id) / play_rate
    transfer_time = (1.0 / receive_rate) if receive_rate > 0 else float("inf")
    return playback_distance - transfer_time


def urgency(seg_id: int, playback_id: int, play_rate: float, receive_rate: float) -> float:
    """``urgency_i = 1 / t_i`` capped at :data:`URGENCY_CAP` (Eq. 7).

    Segments with non-positive slack (already late, or unservable because no
    supplier can send them) get the cap.
    """
    slack = deadline_slack(seg_id, playback_id, play_rate, receive_rate)
    if slack <= 0:
        return URGENCY_CAP
    return min(1.0 / slack, URGENCY_CAP)


def rarity(positions: Sequence[int], buffer_capacity: int | Sequence[int]) -> float:
    """``rarity_i = prod_j (p_ij / B_j)`` (Eq. 8).

    Parameters
    ----------
    positions:
        FIFO positions of the segment in each supplier's buffer, counted
        from the tail (insertion end); ``1`` = newest, ``B`` = next to be
        evicted.
    buffer_capacity:
        Either a single capacity shared by all suppliers or one capacity per
        supplier.

    Returns
    -------
    float
        A value in ``(0, 1]``; segments with no supplier have rarity ``1.0``
        (they are as rare as possible -- nobody holds them), although such
        segments are never schedulable anyway.
    """
    positions = list(positions)
    if not positions:
        return 1.0
    if isinstance(buffer_capacity, (int, float)):
        capacities = [int(buffer_capacity)] * len(positions)
    else:
        capacities = [int(c) for c in buffer_capacity]
        if len(capacities) != len(positions):
            raise ValueError(
                f"got {len(positions)} positions but {len(capacities)} capacities"
            )
    value = 1.0
    for pos, cap in zip(positions, capacities):
        if cap <= 0:
            raise ValueError(f"buffer capacity must be positive, got {cap}")
        clamped = min(max(int(pos), 1), cap)
        value *= clamped / cap
    return value


def request_priority(urgency_value: float, rarity_value: float) -> float:
    """``priority_i = max(urgency_i, rarity_i)`` (Eq. 9)."""
    return max(urgency_value, rarity_value)


def priority_for_view(
    seg_id: int,
    suppliers: Sequence[NeighbourView],
    playback_id: int,
    play_rate: float,
) -> float:
    """Compute a segment's priority (Eq. 9) from neighbour snapshots.

    This is the convenience entry point used by the switch algorithms: it
    derives ``R_i``, the per-supplier buffer positions and capacities from
    the :class:`~repro.core.base.NeighbourView` objects.
    """
    receive_rate = max_receive_rate(s.send_rate for s in suppliers)
    rarity_value = rarity(
        [s.position_of(seg_id) for s in suppliers],
        [s.buffer_capacity for s in suppliers],
    )
    return request_priority(
        urgency(seg_id, playback_id, play_rate, receive_rate), rarity_value
    )
