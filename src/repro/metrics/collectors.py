"""Per-round and per-run metric collection.

The collector is fed once per scheduling period with the tracked peers'
state and produces:

* a :class:`RoundSample` time series -- the data behind the *ratio track*
  figures (Figures 5 and 9): average undelivered ratio of the old source
  and average delivered ratio of the new source's startup window;
* a :class:`SwitchMetrics` summary -- the data behind the bar/line figures
  (Figures 6, 7, 10, 11): average (and worst-case) finishing time of the
  old source, preparing time of the new source and switch completion time.

Peers that never complete within the simulated horizon are accounted for
with the horizon time (and counted in ``unfinished``), so truncated runs
bias both algorithms identically instead of silently dropping slow nodes.
That rule lives in :func:`completion_times`, and :func:`switch_time_stats`
is the one switch-time summary (mean, p50/p90/p99) every report groups by
channel, bandwidth class or network region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "PeerOutcome",
    "RoundSample",
    "SwitchMetrics",
    "MetricsCollector",
    "SwitchTimeStats",
    "completion_times",
    "switch_time_stats",
]


@dataclass(frozen=True)
class PeerOutcome:
    """Final per-peer switch outcome.

    Attributes
    ----------
    node_id:
        Peer id.
    q0:
        Undelivered old-source segments at the switch instant.
    finish_old_time:
        When the peer finished playing the old source (``None`` if never).
    prepared_new_time:
        When the peer had gathered the new source's startup window.
    switch_complete_time:
        When the peer actually started playing the new source
        (``max`` of the two conditions).
    stalls:
        Old-stream playback stalls experienced after the switch instant.
    stalls_new:
        New-stream playback stalls (post-switch continuity losses).
    segments_received:
        Total segments delivered to the peer during the measured window.
    peer_class:
        Bandwidth-class label of the peer (empty when the population is
        homogeneous); feeds the per-class workload metrics.
    region:
        Network-region label of the peer (empty under the ideal fabric);
        feeds the per-region switch-time breakdown of :mod:`repro.metrics.net`.
    """

    node_id: int
    q0: int
    finish_old_time: Optional[float]
    prepared_new_time: Optional[float]
    switch_complete_time: Optional[float]
    stalls: int = 0
    stalls_new: int = 0
    segments_received: int = 0
    peer_class: str = ""
    region: str = ""


@dataclass(frozen=True)
class RoundSample:
    """System-wide averages at the end of one scheduling period.

    ``cumulative_stalls`` is the running total of stall periods over all
    tracked peers and both streams; differencing it between two samples
    gives the stalls incurred in that window (the per-phase continuity
    accounting of the workload engine).
    """

    time: float
    undelivered_ratio_old: float
    delivered_ratio_new: float
    fraction_finished_old: float
    fraction_prepared_new: float
    fraction_switched: float
    tracked_peers: int
    cumulative_stalls: int = 0


@dataclass
class SwitchMetrics:
    """Summary of one simulation run.

    All times are in seconds from the switch instant.  ``avg_switch_time``
    is the paper's headline metric (the average preparing time of the new
    source); ``avg_start_time`` additionally respects the
    finished-old-playback condition (the time playback of the new source
    actually starts).
    """

    algorithm: str
    n_peers: int
    avg_finish_old: float
    avg_prepare_new: float
    avg_switch_time: float
    avg_start_time: float
    last_finish_old: float
    last_prepare_new: float
    last_start_time: float
    unfinished: int
    horizon: float
    overhead_ratio: float = 0.0
    rounds: List[RoundSample] = field(default_factory=list)
    outcomes: List[PeerOutcome] = field(default_factory=list)

    def series(self, attribute: str) -> List[tuple[float, float]]:
        """``(time, value)`` series of a :class:`RoundSample` attribute."""
        return [(sample.time, getattr(sample, attribute)) for sample in self.rounds]


class MetricsCollector:
    """Collects round samples and computes the final summary."""

    def __init__(self, startup_quota_new: int) -> None:
        if startup_quota_new <= 0:
            raise ValueError("startup_quota_new must be positive")
        self.startup_quota_new = int(startup_quota_new)
        self.rounds: List[RoundSample] = []
        # Bound per collector, not at module level: a store replay loads this
        # module for its record classes and never builds a collector.
        from numpy import mean

        self._mean = mean

    # ------------------------------------------------------------------ #
    def sample_round(
        self, time: float, peers: Sequence, departed_stalls: int = 0
    ) -> RoundSample:
        """Record system-wide averages over the tracked ``peers``.

        ``peers`` are :class:`repro.streaming.peer.PeerNode` objects (typed
        loosely to keep this module free of simulator imports for testing).
        ``departed_stalls`` is the frozen stall total of tracked peers that
        have already left through churn; folding it in keeps
        ``cumulative_stalls`` monotone under departures (a leaver's stall
        history must not vanish from the continuity accounting).  The
        session maintains it as a counter at removal time, so sampling
        stays O(alive peers).
        """
        tracked = [p for p in peers if getattr(p, "tracked", True)]
        departed_stalls = int(departed_stalls)
        if not tracked:
            sample = RoundSample(
                time=float(time),
                undelivered_ratio_old=0.0,
                delivered_ratio_new=0.0,
                fraction_finished_old=1.0,
                fraction_prepared_new=1.0,
                fraction_switched=1.0,
                tracked_peers=0,
                cumulative_stalls=departed_stalls,
            )
            self.rounds.append(sample)
            return sample

        undelivered: List[float] = []
        delivered: List[float] = []
        finished = 0
        prepared = 0
        switched = 0
        stalls = departed_stalls
        for peer in tracked:
            stalls += int(getattr(peer, "total_stalls", 0))
            q0 = peer.q0 if peer.q0 else 0
            if q0 > 0:
                undelivered.append(peer.undelivered_old() / q0)
            else:
                undelivered.append(0.0)
            delivered.append(peer.delivered_new_startup() / self.startup_quota_new)
            if peer.finish_old_time is not None:
                finished += 1
            if peer.prepared_new_time is not None:
                prepared += 1
            if peer.switch_complete_time is not None:
                switched += 1

        count = len(tracked)
        sample = RoundSample(
            time=float(time),
            undelivered_ratio_old=self._average(undelivered),
            delivered_ratio_new=self._average(delivered),
            fraction_finished_old=finished / count,
            fraction_prepared_new=prepared / count,
            fraction_switched=switched / count,
            tracked_peers=count,
            cumulative_stalls=stalls,
        )
        self.rounds.append(sample)
        return sample

    def _average(self, values: List[float]) -> float:
        return float(self._mean(values)) if values else 0.0

    # ------------------------------------------------------------------ #
    def finalize(
        self,
        peers: Sequence,
        *,
        algorithm: str,
        horizon: float,
        overhead_ratio: float = 0.0,
    ) -> SwitchMetrics:
        """Build the run summary from the tracked peers' recorded times."""
        outcomes = [
            PeerOutcome(
                node_id=peer.node_id,
                q0=peer.q0 or 0,
                finish_old_time=peer.finish_old_time,
                prepared_new_time=peer.prepared_new_time,
                switch_complete_time=peer.switch_complete_time,
                stalls=peer.playback_old.stall_periods if peer.playback_old else 0,
                stalls_new=(
                    peer.playback_new.stall_periods
                    if getattr(peer, "playback_new", None) is not None
                    else 0
                ),
                segments_received=peer.segments_received_total,
                peer_class=str(getattr(peer, "peer_class", "")),
                region=str(getattr(peer, "region", "")),
            )
            for peer in peers
            if getattr(peer, "tracked", True)
        ]
        finish_times = completion_times(outcomes, "finish_old_time", horizon)
        prepare_times = completion_times(outcomes, "prepared_new_time", horizon)
        start_times = completion_times(outcomes, "switch_complete_time", horizon)
        unfinished = sum(
            1
            for o in outcomes
            if None in (o.finish_old_time, o.prepared_new_time, o.switch_complete_time)
        )

        return SwitchMetrics(
            algorithm=algorithm,
            n_peers=len(outcomes),
            avg_finish_old=self._average(finish_times),
            avg_prepare_new=self._average(prepare_times),
            avg_switch_time=self._average(prepare_times),
            avg_start_time=self._average(start_times),
            last_finish_old=_max(finish_times),
            last_prepare_new=_max(prepare_times),
            last_start_time=_max(start_times),
            unfinished=unfinished,
            horizon=float(horizon),
            overhead_ratio=float(overhead_ratio),
            rounds=list(self.rounds),
            outcomes=outcomes,
        )


def _max(values: List[float]) -> float:
    return float(max(values, default=0.0))


@dataclass(frozen=True)
class SwitchTimeStats:
    """Switch-time distribution of one group of tracked peers.

    Times are switch completion times in seconds from the switch instant;
    the ``unfinished`` peers contribute the horizon.
    """

    peers: int
    mean: float
    p50: float
    p90: float
    p99: float
    unfinished: int


def completion_times(
    outcomes: Sequence[PeerOutcome], attribute: str, horizon: float
) -> List[float]:
    """The outcomes' ``attribute`` times in outcome order, a peer that never
    got there counted at ``horizon``."""
    return [
        float(horizon) if (time := getattr(outcome, attribute)) is None else float(time)
        for outcome in outcomes
    ]


def switch_time_stats(
    outcomes: Sequence[PeerOutcome],
    *,
    horizon: float,
    group: Optional[Callable[[PeerOutcome], str]] = None,
) -> Dict[str, SwitchTimeStats]:
    """One :class:`SwitchTimeStats` per ``group`` label, sorted by label.

    Without ``group`` every outcome is in the one group ``""``, present even
    when there are no outcomes (a channel whose mesh emptied out before the
    switch completed reads all zeros).  The mean is taken over the sorted
    samples and the percentiles interpolate linearly between them.
    """
    groups: Dict[str, List[PeerOutcome]] = {} if group else {"": []}
    for outcome in outcomes:
        groups.setdefault(group(outcome) if group else "", []).append(outcome)
    return {label: _summary(groups[label], horizon) for label in sorted(groups)}


def _summary(outcomes: Sequence[PeerOutcome], horizon: float) -> SwitchTimeStats:
    if not outcomes:
        return SwitchTimeStats(peers=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, unfinished=0)
    # Deferred like MetricsCollector's: a store replay loads this module.
    import numpy as np

    times = np.sort(np.asarray(completion_times(outcomes, "switch_complete_time", horizon)))
    p50, p90, p99 = (float(v) for v in np.percentile(times, [50.0, 90.0, 99.0]))
    return SwitchTimeStats(
        peers=int(times.size),
        mean=float(np.mean(times)),
        p50=p50,
        p90=p90,
        p99=p99,
        unfinished=sum(1 for o in outcomes if o.switch_complete_time is None),
    )
