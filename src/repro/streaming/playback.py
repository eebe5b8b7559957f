"""Per-stream playback state machines.

A peer plays the old stream continuously (it was already playing it before
the switch), then starts the new stream once two conditions hold:

1. the whole playback of the old stream has finished, and
2. the first ``Qs`` segments of the new stream have been gathered.

:class:`PlaybackState` models the playback of one stream: a pointer that
advances ``p`` segments per second as long as the next segment is present
in the buffer, stalling (and later resuming once ``Q`` consecutive segments
are available again) when it is not.  The peer object composes two of these
-- one per stream -- and records the timestamps the metrics need
(finish time of the old stream, prepare/start time of the new one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.streaming.buffer import SegmentBuffer

__all__ = ["PlaybackState"]


@dataclass
class PlaybackState:
    """Playback of one stream at one peer.

    Attributes
    ----------
    play_rate:
        ``p``: segments consumed per second while playing.
    startup_quota:
        Number of consecutive segments that must be buffered (starting at
        :attr:`position`) before playback (re)starts -- ``Q`` for the old
        stream, ``Qs`` for the new one.
    position:
        Id of the next segment to play.
    last_id:
        Final segment id of the stream, or ``None`` for an open-ended
        stream.  Playback *finishes* when the position moves past it.
    started / finished:
        State flags.
    start_time / finish_time:
        Simulation times at which playback started / finished.
    stall_periods:
        Number of scheduling periods in which playback was blocked on a
        missing segment (continuity-loss indicator).
    played:
        Total segments played.
    """

    play_rate: float
    startup_quota: int
    position: int
    last_id: Optional[int] = None
    started: bool = False
    finished: bool = False
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    stall_periods: int = 0
    played: int = 0
    _carry: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.play_rate <= 0:
            raise ValueError(f"play_rate must be positive, got {self.play_rate}")
        if self.startup_quota < 1:
            raise ValueError(f"startup_quota must be >= 1, got {self.startup_quota}")

    # ------------------------------------------------------------------ #
    def remaining_ids(self) -> Optional[range]:
        """Ids still to be played, or ``None`` for an open-ended stream."""
        if self.last_id is None:
            return None
        return range(self.position, self.last_id + 1)

    def can_start(self, buffer: SegmentBuffer) -> bool:
        """Whether the startup condition is met.

        ``startup_quota`` consecutive segments from :attr:`position` must be
        buffered; for a finite stream whose remaining length is shorter than
        the quota, having all remaining segments suffices.
        """
        end = self.position + self.startup_quota - 1
        if self.last_id is not None:
            end = min(end, self.last_id)
        return buffer.contains_range(self.position, end)

    def maybe_start(self, buffer: SegmentBuffer, now: float) -> bool:
        """Start playback if the startup condition holds; return whether playing."""
        if self.finished:
            return False
        if self.started:
            return True
        if self.can_start(buffer):
            self.started = True
            if self.start_time is None:
                self.start_time = now
            return True
        return False

    def advance(self, buffer: SegmentBuffer, now: float, duration: float) -> int:
        """Play for ``duration`` seconds; return the number of segments played.

        Playback consumes up to ``play_rate * duration`` segments (plus any
        fractional carry from earlier calls), stopping early if a segment is
        missing (a stall) or the stream ends.  When the final segment of a
        finite stream has been played, :attr:`finished` becomes ``True`` and
        :attr:`finish_time` is set to ``now + duration`` (end of the period).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self.finished or not self.started:
            return 0

        budget = self.play_rate * duration + self._carry
        whole = int(budget)
        self._carry = budget - whole

        played_now = 0
        stalled = False
        for _ in range(whole):
            if self.last_id is not None and self.position > self.last_id:
                break
            if buffer.contains(self.position):
                self.position += 1
                self.played += 1
                played_now += 1
            else:
                stalled = True
                break

        if stalled:
            self.stall_periods += 1
            # A stall forces a re-buffering phase: playback resumes only when
            # the startup condition holds again.
            self.started = False
            self._carry = 0.0

        if self.last_id is not None and self.position > self.last_id and not self.finished:
            self.finished = True
            self.finish_time = now + duration
        return played_now

    def progress(self) -> float:
        """Fraction of a finite stream already played (0.0 for open-ended)."""
        if self.last_id is None:
            return 0.0
        total = self.last_id + 1 - (self.position - self.played)
        if total <= 0:
            return 1.0
        return min(1.0, self.played / total)
