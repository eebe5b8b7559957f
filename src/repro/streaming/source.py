"""Source node behaviour.

A source generates ``p`` segments per second into its own (unbounded)
buffer and serves them to its overlay neighbours through the same
buffer-map / request protocol as every other node.  Per the paper's
configuration a source has zero inbound rate and a much larger outbound
rate than ordinary peers.

Two sources participate in a switch session:

* the **old source** ``S1`` streamed before the switch and stops generating
  at the switch time (time 0); it keeps serving its already-generated
  segments,
* the **new source** ``S2`` starts generating at the switch time; it knows
  the old stream's final segment id and announces it alongside its first
  segments (modelled by the ``switch_info`` field of its buffer-map
  snapshots), which is how awareness of the switch propagates through the
  mesh.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.base import Stream
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import BufferMapSnapshot, snapshot_buffer
from repro.streaming.segment import StreamSpec, SwitchPlan

__all__ = ["SourceNode"]


class SourceNode:
    """A streaming source.

    Parameters
    ----------
    spec:
        The stream this source generates (ids, rate, segment size).
    outbound_rate:
        Upload capacity in segments/second ("much larger" than a peer's).
    start_time:
        Simulation time at which generation begins.
    stop_time:
        Simulation time at which generation stops (``None`` = never).  The
        old source uses the switch time; the new source streams on.
    """

    def __init__(
        self,
        spec: StreamSpec,
        *,
        outbound_rate: float,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if outbound_rate <= 0:
            raise ValueError(f"outbound_rate must be positive, got {outbound_rate}")
        self.spec = spec
        self.node_id = spec.source_id
        self.outbound_rate = float(outbound_rate)
        self.start_time = float(start_time)
        self.stop_time = float(stop_time) if stop_time is not None else None
        self.buffer = SegmentBuffer(capacity=None)
        self._generated = 0
        self.switch_plan: Optional[SwitchPlan] = None

    # ------------------------------------------------------------------ #
    @property
    def inbound_rate(self) -> float:
        """Sources do not download (paper: "the source node has zero inbound rate")."""
        return 0.0

    @property
    def stream(self) -> Stream:
        """Which logical source this node is."""
        return self.spec.stream

    @property
    def generated(self) -> int:
        """Number of segments generated so far."""
        return self._generated

    def last_generated_id(self) -> Optional[int]:
        """Id of the newest generated segment, or ``None`` before the first."""
        if self._generated == 0:
            return None
        return self.spec.first_id + self._generated - 1

    # ------------------------------------------------------------------ #
    def generate_until(self, now: float) -> Sequence[int]:
        """Generate all segments due by time ``now``; return the new ids."""
        horizon = now if self.stop_time is None else min(now, self.stop_time)
        due = self.spec.segments_generated_by(self.start_time, horizon)
        if due <= self._generated:
            return ()
        new_ids = [self.spec.id_at(i) for i in range(self._generated, due)]
        self.buffer.insert_many(new_ids)
        self._generated = due
        return tuple(new_ids)

    def preload(self, count: int) -> Sequence[int]:
        """Instantly generate ``count`` segments (analytic warm-up of the old source)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        # Stream ids are consecutive; a ``range`` lets the buffer store the
        # whole warm-up window in one step.
        first = self.spec.id_at(self._generated)
        new_ids = range(first, first + count - self._generated)
        self.buffer.insert_many(new_ids)
        self._generated = max(self._generated, count)
        return tuple(new_ids)

    def announce_switch(self, plan: SwitchPlan) -> None:
        """Give the source knowledge of the switch plan (both sources get it)."""
        self.switch_plan = plan

    # ------------------------------------------------------------------ #
    def switch_announcement(self) -> Optional[Tuple[int, int]]:
        """``(id_end, id_begin)`` if this source can announce the switch.

        The old source announces as soon as it knows (it decided to stop);
        the new source announces alongside its data, which it has from its
        very first generated segment onwards.
        """
        if self.switch_plan is None:
            return None
        return (self.switch_plan.id_end, self.switch_plan.id_begin)

    def snapshot_for(
        self,
        windows: Sequence[Tuple[int, int]],
        *,
        send_rate: float,
    ) -> BufferMapSnapshot:
        """Produce the buffer-map snapshot a neighbour pulls from this source."""
        return snapshot_buffer(
            owner_id=self.node_id,
            buffer=self.buffer,
            windows=windows,
            send_rate=send_rate,
            switch_info=self.switch_announcement(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SourceNode(id={self.node_id}, stream={self.stream}, "
            f"generated={self._generated})"
        )
