"""Quality-of-experience metrics for time-scripted workloads.

The paper reports switch-time averages over a homogeneous population and a
single switch event.  The workload engine (:mod:`repro.workloads`) drives
repeated switches through phases of varying churn and bandwidth, so its
reports need finer-grained quality measures:

* :class:`PhaseQoE` -- playback continuity over one phase window: the
  *playback continuity index* (fraction of peer-periods free of stalls),
  the absolute number of stall periods incurred, and how far the switch
  progressed by the end of the phase;
* :class:`ClassSwitchStats` -- per bandwidth class (ADSL/cable/fiber ...),
  the stored form of :func:`~repro.metrics.collectors.switch_time_stats`
  grouped by class: the mean and the 50th/90th/99th percentiles of the
  per-peer switch completion times (unfinished peers count at the horizon).

Both are computed from data the session already records -- the
:class:`~repro.metrics.collectors.RoundSample` series and the per-peer
:class:`~repro.metrics.collectors.PeerOutcome` records -- so a stored
result can be re-analysed without re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.metrics.collectors import PeerOutcome, RoundSample, switch_time_stats

__all__ = [
    "PhaseQoE",
    "ClassSwitchStats",
    "phase_qoe",
    "per_class_switch_stats",
    "continuity_index",
]


@dataclass(frozen=True)
class PhaseQoE:
    """Playback quality over one phase window of a workload segment.

    Attributes
    ----------
    phase:
        Phase name from the workload spec.
    start / end:
        Window bounds in seconds from the segment's switch instant.
    periods:
        Number of scheduling periods the window covers.
    stall_periods:
        Stall periods incurred by tracked peers inside the window.
    continuity_index:
        ``1 - stall_periods / (peers x periods)`` clamped to ``[0, 1]`` --
        1.0 means nobody stalled during the phase.
    fraction_switched:
        Fraction of tracked peers that had completed the switch by the end
        of the window.
    """

    phase: str
    start: float
    end: float
    periods: int
    stall_periods: int
    continuity_index: float
    fraction_switched: float


@dataclass(frozen=True)
class ClassSwitchStats:
    """Switch-time distribution of one bandwidth class.

    Times are per-peer switch completion times in seconds from the switch
    instant; unfinished peers contribute the horizon.
    """

    peer_class: str
    peers: int
    mean: float
    p50: float
    p90: float
    p99: float


def continuity_index(stalls: int, peers: int, periods: int) -> float:
    """``1 - stalls / (peers x periods)``, clamped to ``[0, 1]``."""
    slots = peers * periods
    if slots <= 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - stalls / slots))


def _window_samples(
    rounds: Sequence[RoundSample], start: float, end: float
) -> List[RoundSample]:
    return [sample for sample in rounds if start < sample.time <= end + 1e-9]


def phase_qoe(
    rounds: Sequence[RoundSample],
    windows: Sequence[Tuple[str, float, float]],
) -> Tuple[PhaseQoE, ...]:
    """Per-phase QoE from a session's round-sample series.

    Parameters
    ----------
    rounds:
        The session's :class:`RoundSample` series (``record_rounds=True``).
    windows:
        ``(phase_name, start, end)`` triples in seconds from the switch
        instant, contiguous and in order (the compiled workload schedule's
        phase windows).

    Stall accounting differences the ``cumulative_stalls`` counter at the
    window bounds, so phases partition the session's stalls exactly.
    Stalls incurred at or before time 0 (a simulated warm-up runs at
    negative times) are excluded via the baseline sample, not charged to
    the first phase.  A window past the recorded horizon (the session
    stopped early) reports zero periods and carries the last known switch
    fraction.
    """
    results: List[PhaseQoE] = []
    baseline = [sample for sample in rounds if sample.time <= 0]
    stalls_before = baseline[-1].cumulative_stalls if baseline else 0
    fraction = 1.0 if not rounds else rounds[0].fraction_switched
    for name, start, end in windows:
        samples = _window_samples(rounds, start, end)
        if samples:
            stalls_at_end = samples[-1].cumulative_stalls
            fraction = samples[-1].fraction_switched
            peers = max(sample.tracked_peers for sample in samples)
        else:
            stalls_at_end = stalls_before
            peers = 0
        stall_count = max(0, stalls_at_end - stalls_before)
        stalls_before = stalls_at_end
        results.append(
            PhaseQoE(
                phase=name,
                start=float(start),
                end=float(end),
                periods=len(samples),
                stall_periods=stall_count,
                continuity_index=continuity_index(stall_count, peers, len(samples)),
                fraction_switched=float(fraction),
            )
        )
    return tuple(results)


def per_class_switch_stats(
    outcomes: Sequence[PeerOutcome],
    *,
    horizon: float,
) -> Tuple[ClassSwitchStats, ...]:
    """Switch-time statistics grouped by peer class, sorted by class name.

    Peers without a class label are grouped under ``"all"``.
    """
    stats = switch_time_stats(
        outcomes, horizon=horizon, group=lambda outcome: outcome.peer_class or "all"
    )
    return tuple(
        ClassSwitchStats(label, s.peers, s.mean, s.p50, s.p90, s.p99)
        for label, s in stats.items()
    )
