"""Stream descriptors and segment-id arithmetic.

Segments are identified by globally unique, monotonically increasing
integer ids.  The old source ``S1`` owns ids ``[first_id, last_id]`` and the
new source ``S2`` owns ids from ``last_id + 1`` upwards (the paper sets
``id_begin = id_end + 1``).  Working with one global id space keeps the
playback deadline arithmetic of Eq. 7 uniform across the switch boundary,
exactly as the paper's model does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Stream

__all__ = ["DEFAULT_SEGMENT_BITS", "StreamSpec", "SwitchPlan"]

#: Size of one data segment in bits (the paper: "each data segment contains
#: 30 Kb", with a 300 kbit/s stream and p = 10 segments/second).
DEFAULT_SEGMENT_BITS: int = 30 * 1024


@dataclass(frozen=True)
class StreamSpec:
    """Description of one source's stream.

    Attributes
    ----------
    stream:
        Which logical source this is (old or new).
    source_id:
        Overlay node id of the source.
    first_id:
        Id of the stream's first segment.
    rate:
        Segment generation rate ``p`` (segments/second).
    segment_bits:
        Payload size of each segment in bits.
    """

    stream: Stream
    source_id: int
    first_id: int
    rate: float
    segment_bits: int = DEFAULT_SEGMENT_BITS

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"stream rate must be positive, got {self.rate}")
        if self.first_id < 0:
            raise ValueError(f"first_id must be non-negative, got {self.first_id}")
        if self.segment_bits <= 0:
            raise ValueError(f"segment_bits must be positive, got {self.segment_bits}")

    def segments_generated_by(self, start_time: float, now: float) -> int:
        """Number of segments generated between ``start_time`` and ``now``."""
        if now <= start_time:
            return 0
        return int((now - start_time) * self.rate)

    def id_at(self, index: int) -> int:
        """Id of the stream's ``index``-th segment (0-based)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return self.first_id + index


@dataclass(frozen=True)
class SwitchPlan:
    """The global facts of a source switch.

    ``id_end`` is the last segment of the old source and ``id_begin`` the
    first segment of the new one; the paper fixes ``id_begin = id_end + 1``
    and has the new source announce ``id_end`` inside its first segments.
    Peers do **not** see this object directly -- they learn the ids through
    the buffer-map exchange (see
    :class:`repro.streaming.buffermap.BufferMapSnapshot.switch_info`).

    Attributes
    ----------
    id_end:
        Last segment id of the old stream.
    id_begin:
        First segment id of the new stream.
    switch_time:
        Simulation time at which the old source stops and the new one
        starts (always ``0.0`` in the paper's timeline).
    startup_quota:
        ``Qs``: segments of the new stream required to start its playback.
    """

    id_end: int
    id_begin: int
    switch_time: float = 0.0
    startup_quota: int = 50

    def __post_init__(self) -> None:
        if self.id_begin != self.id_end + 1:
            raise ValueError(
                f"id_begin must equal id_end + 1 (paper convention); "
                f"got id_end={self.id_end}, id_begin={self.id_begin}"
            )
        if self.startup_quota <= 0:
            raise ValueError(f"startup_quota must be positive, got {self.startup_quota}")

    def stream_of(self, seg_id: int) -> Stream:
        """Which stream a segment id belongs to."""
        return Stream.NEW if seg_id >= self.id_begin else Stream.OLD

    def startup_ids(self) -> range:
        """The ids of the new stream's startup window (first ``Qs`` segments)."""
        return range(self.id_begin, self.id_begin + self.startup_quota)

    @staticmethod
    def from_old_stream(
        last_old_id: int,
        *,
        switch_time: float = 0.0,
        startup_quota: int = 50,
    ) -> "SwitchPlan":
        """Build a plan given the old stream's final segment id."""
        return SwitchPlan(
            id_end=last_old_id,
            id_begin=last_old_id + 1,
            switch_time=switch_time,
            startup_quota=startup_quota,
        )
