"""Peer behaviour: view construction, request execution, playback.

A :class:`PeerNode` is one non-source participant of the mesh.  Every
scheduling period the session gives it the buffer-map snapshots it pulled
from its current neighbours; the peer

1. updates its knowledge (discovers the source switch the first time a
   neighbour that *holds new-source data* announces it, learns about newly
   generated segments, records the id ranges its undelivered-segment sets
   are drawn from),
2. builds a :class:`~repro.core.base.LocalView` and lets its switch
   algorithm produce a :class:`~repro.core.base.ScheduleDecision`,
3. receives the deliveries the session executed against the suppliers'
   outbound budgets, and
4. advances playback: the old stream finishes when its last segment has
   been played; the new stream starts once the old one has finished *and*
   its first ``Qs`` segments are buffered -- the moment the paper calls the
   completion of the peer's source switch.

The peer records the per-node quantities behind the paper's metrics:
``Q0`` (backlog at the switch instant), the number of old/new segments
received since the switch, the finish time of the old stream, the prepare
time of the new stream and the switch completion time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.base import LocalView, ScheduleDecision, SwitchAlgorithm
from repro.streaming.bandwidth import BandwidthProfile
from repro.streaming.buffer import SegmentBuffer, popcount, range_mask
from repro.streaming.buffermap import BufferMapSnapshot, snapshot_buffer
from repro.streaming.playback import PlaybackState
from repro.streaming.segment import SwitchPlan

__all__ = ["PeerNode"]

#: An inclusive id range holding nothing (``hi < lo``).
_EMPTY_RANGE: Tuple[int, int] = (0, -1)


class PeerNode:
    """One mesh peer.

    Parameters
    ----------
    node_id:
        Overlay node id.
    bandwidth:
        Inbound/outbound capacity in segments per second.
    algorithm:
        The switch algorithm instance scheduling this peer's requests.
    buffer_capacity:
        FIFO buffer size ``B`` (segments).
    play_rate:
        Playback rate ``p`` (segments/second).
    startup_quota_old:
        ``Q``: consecutive segments needed to (re)start old-stream playback.
    startup_quota_new:
        ``Qs``: segments of the new stream needed to start its playback.
    tau:
        Data scheduling period (seconds).
    lookahead:
        How far beyond the playback position the peer advertises interest
        when it does not yet know where the old stream ends (segments).
    tracked:
        Whether this peer participates in switch-time metrics (peers that
        join through churn are not tracked, matching the paper's setup where
        joiners simply follow their neighbours' playback point).
    peer_class:
        Optional bandwidth-class label (ADSL/cable/fiber ...) used by the
        per-class workload metrics; empty for homogeneous populations.
    region:
        Optional network-region label assigned by the session's
        :class:`~repro.net.fabric.NetworkFabric`; empty under the ideal
        (network-oblivious) fabric.  Feeds the per-region switch-time
        breakdown.
    """

    def __init__(
        self,
        node_id: int,
        bandwidth: BandwidthProfile,
        algorithm: SwitchAlgorithm,
        *,
        buffer_capacity: int = 600,
        play_rate: float = 10.0,
        startup_quota_old: int = 10,
        startup_quota_new: int = 50,
        tau: float = 1.0,
        lookahead: int = 600,
        tracked: bool = True,
        peer_class: str = "",
        region: str = "",
    ) -> None:
        self.node_id = int(node_id)
        self.bandwidth = bandwidth
        self.algorithm = algorithm
        self.play_rate = float(play_rate)
        self.startup_quota_old = int(startup_quota_old)
        self.startup_quota_new = int(startup_quota_new)
        self.tau = float(tau)
        self.lookahead = int(lookahead)
        self.tracked = bool(tracked)
        self.peer_class = str(peer_class)
        self.region = str(region)

        self.buffer = SegmentBuffer(capacity=buffer_capacity)
        self.playback_old: Optional[PlaybackState] = None
        self.playback_new: Optional[PlaybackState] = None

        self.switch_plan: Optional[SwitchPlan] = None
        #: inclusive id bounds of the new stream's start-up window, fixed
        #: when the plan is adopted (empty until then)
        self._startup: Tuple[int, int] = _EMPTY_RANGE
        self.has_new_data = False
        self.highest_known_old: Optional[int] = None
        self.highest_known_new: Optional[int] = None
        #: inclusive id ranges ``(old lo, old hi, new lo, new hi)`` the wanted
        #: sets were last drawn from; a set is the buffer's holes in its range
        self._wanted_at: Tuple[int, int, int, int] = _EMPTY_RANGE + _EMPTY_RANGE
        #: the bitmap of the start-up window, fixed with it
        self._startup_mask = 0

        # --- per-node metric bookkeeping (read by the session/collectors) ---
        self.q0: Optional[int] = None
        self.old_received_since_switch = 0
        self.new_startup_received = 0
        self.finish_old_time: Optional[float] = None
        self.prepared_new_time: Optional[float] = None
        self.switch_complete_time: Optional[float] = None
        self.segments_received_total = 0
        self.requests_issued = 0
        self.requests_failed = 0
        self.discovered_switch_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # warm-up seeding
    # ------------------------------------------------------------------ #
    def seed_steady_state(
        self,
        *,
        head_id: int,
        playback_position: int,
        first_old_id: int,
        now: float = 0.0,
    ) -> None:
        """Seed the peer into the steady state of the old stream.

        The buffer is filled with the contiguous window ending at
        ``head_id`` (bounded by its capacity and ``first_old_id``); playback
        is in progress at ``playback_position``.
        """
        if playback_position > head_id + 1:
            raise ValueError("playback_position cannot exceed head_id + 1")
        capacity = self.buffer.capacity or 0
        lo = max(first_old_id, head_id - capacity + 1) if capacity else first_old_id
        self.buffer.insert_many(range(lo, head_id + 1))
        self.highest_known_old = head_id
        self.playback_old = PlaybackState(
            play_rate=self.play_rate,
            startup_quota=self.startup_quota_old,
            position=playback_position,
            last_id=None,
            started=True,
            start_time=now,
        )

    def init_fresh_playback(self, position: int, *, open_ended: bool = True) -> None:
        """Initialise playback for a peer joining mid-stream (churn joiner)."""
        self.playback_old = PlaybackState(
            play_rate=self.play_rate,
            startup_quota=self.startup_quota_old,
            position=position,
            last_id=None,
        )
        self.highest_known_old = max(self.highest_known_old or 0, position)
        if not open_ended and self.switch_plan is not None:
            self.playback_old.last_id = self.switch_plan.id_end

    # ------------------------------------------------------------------ #
    # knowledge updates
    # ------------------------------------------------------------------ #
    def observe_snapshots(self, snapshots: Sequence[BufferMapSnapshot], now: float) -> None:
        """Digest the buffer maps pulled this period.

        Adopts the switch announcement (once), extends the known id horizon
        of both streams and refreshes the undelivered-segment sets.
        """
        if self.playback_old is None:
            raise RuntimeError(
                f"peer {self.node_id} was never seeded with a playback state"
            )
        advertised = 0
        for snap in snapshots:
            if snap.switch_info is not None and self.switch_plan is None:
                self._adopt_switch(snap.switch_info, now)
            advertised |= snap.bits
        self._extend_horizons(advertised)
        self.refresh_wanted()

    def _extend_horizons(self, advertised: int) -> None:
        """Raise the highest known ids to what the OR-ed maps advertise.

        The highest advertised id of a stream is the top bit of its part of
        the maps: ids from ``id_begin`` on are the new stream's, ids up to
        ``id_end`` (all of them before the switch is known) the old one's.
        """
        old_part = advertised
        if self.switch_plan is not None:
            if advertised >> self.switch_plan.id_begin:
                self.highest_known_new = max(
                    self.highest_known_new or 0, advertised.bit_length() - 1
                )
            old_part &= range_mask(0, self.switch_plan.id_end)
        if old_part:
            self.highest_known_old = max(
                self.highest_known_old or 0, old_part.bit_length() - 1
            )

    def _adopt_switch(self, info: Tuple[int, int], now: float) -> None:
        """Learn ``(id_end, id_begin)`` and set up the new stream's state."""
        id_end, id_begin = info
        self.switch_plan = SwitchPlan(
            id_end=id_end,
            id_begin=id_begin,
            startup_quota=self.startup_quota_new,
        )
        startup = self.switch_plan.startup_ids()
        self._startup = (startup.start, startup.stop - 1)
        self._startup_mask = range_mask(*self._startup)
        self.discovered_switch_time = now
        assert self.playback_old is not None
        self.playback_old.last_id = id_end
        if self.playback_old.position > id_end and not self.playback_old.finished:
            # Everything of the old stream was already played before the
            # switch was even discovered.
            self.playback_old.finished = True
            self.playback_old.finish_time = now
        if self.highest_known_old is None or self.highest_known_old > id_end:
            self.highest_known_old = id_end
        self.playback_new = PlaybackState(
            play_rate=self.play_rate,
            startup_quota=self.startup_quota_new,
            position=id_begin,
            last_id=None,
        )
        self.refresh_wanted(old=False)
        self._check_prepared(now)

    def refresh_wanted(self, *, old: bool = True) -> Tuple[int, int, int, int]:
        """Redraw the wanted sets (unless ``old``, the new stream's only) from
        current knowledge: record and return the ranges of :attr:`_wanted_at`."""
        old_range = self._wanted_at[:2]
        if old:
            playback = self.playback_old
            assert playback is not None
            old_range = (
                _EMPTY_RANGE if playback.finished or self.highest_known_old is None
                else (playback.position, self.highest_known_old)
            )
        new_range = self._startup  # _EMPTY_RANGE until the switch is known
        if self.playback_new is not None and self.playback_new.started:
            # Post-switch streaming of the new source: a sliding window ahead
            # of the playback position, bounded by what is known to exist.
            new_range = _EMPTY_RANGE
            if self.highest_known_new is not None:
                lo = self.playback_new.position
                new_range = (lo, min(self.highest_known_new, lo + self.lookahead))
        self._wanted_at = old_range + new_range
        return self._wanted_at

    @property
    def wanted_old(self) -> Set[int]:
        """Old-stream ids still undelivered (the holes of the recorded range)."""
        return set(self.buffer.missing_in_range(*self._wanted_at[:2]))

    @property
    def wanted_new(self) -> Set[int]:
        """New-stream ids still undelivered (the holes of the recorded range)."""
        return set(self.buffer.missing_in_range(*self._wanted_at[2:]))

    def wanted_count(self) -> int:
        """``len(wanted_old) + len(wanted_new)``, counted on the bitmap."""
        old_lo, old_hi, new_lo, new_hi = self._wanted_at
        holes = (range_mask(old_lo, old_hi) | range_mask(new_lo, new_hi)) & ~self.buffer.bits
        return popcount(holes)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def interest_windows(self) -> List[Tuple[int, int]]:
        """Id ranges this peer asks its neighbours to report maps for."""
        assert self.playback_old is not None
        windows: List[Tuple[int, int]] = []
        if self.switch_plan is None:
            lo = self.playback_old.position
            windows.append((lo, lo + self.lookahead))
            return windows
        if not self.playback_old.finished:
            windows.append((self.playback_old.position, self.switch_plan.id_end))
        if self.playback_new is not None and self.playback_new.started:
            lo = self.playback_new.position
            windows.append((lo, lo + self.lookahead))
        else:
            lo, hi = self._startup
            windows.append((lo, hi + self.lookahead // 4))
        return windows

    def build_view(self, snapshots: Sequence[BufferMapSnapshot], now: float) -> LocalView:
        """Assemble the :class:`LocalView` for this period."""
        assert self.playback_old is not None
        playback_id = self._current_playback_id()
        old_lo, old_hi, new_lo, new_hi = self._wanted_at
        missing = self.buffer.missing_in_range
        return LocalView(
            now=now,
            tau=self.tau,
            play_rate=self.play_rate,
            inbound_rate=self.bandwidth.inbound,
            playback_id=playback_id,
            startup_quota_old=self.startup_quota_old,
            startup_quota_new=self.startup_quota_new,
            old_needed=frozenset(missing(old_lo, old_hi)),
            new_needed=frozenset(missing(new_lo, new_hi)),
            id_end=self.switch_plan.id_end if self.switch_plan else None,
            id_begin=self.switch_plan.id_begin if self.switch_plan else None,
            neighbours=tuple(snapshots),
        )

    def decide(self, snapshots: Sequence[BufferMapSnapshot], now: float) -> ScheduleDecision:
        """Observe the snapshots and run the switch algorithm."""
        self.observe_snapshots(snapshots, now)
        view = self.build_view(snapshots, now)
        decision = self.algorithm.schedule(view)
        self.requests_issued += len(decision.requests)
        return decision

    def _current_playback_id(self) -> int:
        """``id_play``: the segment the player is currently consuming."""
        assert self.playback_old is not None
        if not self.playback_old.finished:
            return self.playback_old.position
        if self.playback_new is not None and self.playback_new.started:
            return self.playback_new.position
        # Old stream finished, new one not started: deadlines are measured
        # from the boundary (the player will resume at id_begin).
        if self.switch_plan is not None:
            return self.switch_plan.id_begin
        return self.playback_old.position

    # ------------------------------------------------------------------ #
    # deliveries and playback
    # ------------------------------------------------------------------ #
    def apply_delivery(self, seg_id: int, now: float) -> None:
        """Store a delivered segment and update metric counters."""
        buffer = self.buffer
        if buffer._bits >> seg_id & 1:  # a duplicate changes nothing
            return
        buffer._append(seg_id)
        self.segments_received_total += 1
        if self.switch_plan is not None and seg_id >= self.switch_plan.id_begin:
            self.has_new_data = True
            if seg_id <= self._startup[1]:
                self.new_startup_received += 1
            self._check_prepared(now)
        else:
            if now >= 0.0:
                self.old_received_since_switch += 1

    def _check_prepared(self, now: float) -> None:
        """Record the prepare time once all ``Qs`` startup segments are held."""
        if self.prepared_new_time is not None or self.switch_plan is None:
            return
        mask = self._startup_mask
        if self.buffer._bits & mask == mask:
            self.prepared_new_time = now

    def advance_playback(self, now: float, duration: float) -> None:
        """Advance playback by ``duration`` seconds and update switch state."""
        assert self.playback_old is not None
        if not self.playback_old.finished:
            self.playback_old.maybe_start(self.buffer, now)
            self.playback_old.advance(self.buffer, now, duration)
        if self.playback_old.finished and self.finish_old_time is None:
            self.finish_old_time = self.playback_old.finish_time

        if (
            self.playback_old.finished
            and self.playback_new is not None
            and not self.playback_new.finished
        ):
            was_playing = self.playback_new.started
            self.playback_new.maybe_start(self.buffer, now + duration)
            if self.playback_new.started and self.switch_complete_time is None:
                self.switch_complete_time = self.playback_new.start_time
            if was_playing:
                # Only consume segments if playback was already running at
                # the start of the period; a stream that starts at the end of
                # this period begins consuming next period.
                self.playback_new.advance(self.buffer, now, duration)
                self.refresh_wanted(old=False)

    # ------------------------------------------------------------------ #
    # serving others
    # ------------------------------------------------------------------ #
    def switch_announcement(self) -> Optional[Tuple[int, int]]:
        """Announce the switch only when this peer actually holds new-source data."""
        if self.switch_plan is None or not self.has_new_data:
            return None
        return (self.switch_plan.id_end, self.switch_plan.id_begin)

    def snapshot_for(
        self,
        windows: Sequence[Tuple[int, int]],
        *,
        send_rate: float,
    ) -> BufferMapSnapshot:
        """Produce the buffer-map snapshot a neighbour pulls from this peer."""
        return snapshot_buffer(
            owner_id=self.node_id,
            buffer=self.buffer,
            windows=windows,
            send_rate=send_rate,
            switch_info=self.switch_announcement(),
        )

    # ------------------------------------------------------------------ #
    @property
    def switch_done(self) -> bool:
        """Whether this peer has completed its source switch."""
        return self.switch_complete_time is not None

    @property
    def total_stalls(self) -> int:
        """Stall periods across both streams (continuity accounting)."""
        stalls = self.playback_old.stall_periods if self.playback_old is not None else 0
        if self.playback_new is not None:
            stalls += self.playback_new.stall_periods
        return stalls

    def undelivered_old(self) -> int:
        """``Q1``: old-stream segments still undelivered since ``Q0`` (metric helper)."""
        return max(0, (self.q0 or 0) - self.old_received_since_switch)

    def delivered_new_startup(self) -> int:
        """``Qs - Q2``: delivered segments of the new stream's startup window."""
        return min(self.new_startup_received, self.startup_quota_new)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerNode(id={self.node_id}, buffered={len(self.buffer)}, "
            f"switch_done={self.switch_done})"
        )
