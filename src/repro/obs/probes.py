"""Sim-time protocol probes: segment lifecycle, swarm health, startup funnel.

Where :mod:`repro.obs.trace` answers "where does a period spend its
*wall-clock* time?", this module answers "what happened *inside the
protocol*?" -- in simulation time.  Three probes, all struct-of-arrays
ring buffers in the SMPyBandits preallocated-memory spirit (append-only
columns, bounded, dropped counter instead of unbounded growth):

* :class:`SegmentLifecycleProbe` -- one row per segment-lifecycle event
  (requested -> supplier-assigned -> scheduled -> delivered/dropped ->
  played/missed-deadline), with sim timestamps, peer/segment/supplier
  ids and a stage-specific value column;
* :class:`SwarmHealthProbe` -- one row per scheduling period: the
  buffer-fill distribution across peers (exact percentiles through a
  :class:`~repro.metrics.sketch.QuantileSketch`), pending-request depth,
  supplier utilisation and the period's request/failure/delivery tally;
* :class:`StartupFunnelProbe` -- set-once milestones per peer
  (joined -> first buffer map -> first new-stream segment -> playback),
  the funnel every "why is this switch slow?" question starts from.

The probes ride the telemetry switch: :class:`ProbeSet` hangs off
:class:`repro.obs.telemetry.Telemetry` when requested
(``telemetry_session(probes=True)``) and is otherwise the shared
:data:`NULL_PROBES`, which has no probes at all.  Instrumented code
guards every probe call behind ``probes.enabled``, so the off cost is one
attribute lookup.

Every emission site is the session's period pipeline, shared by both
engines, and the decide-stage rows are read off bit-identical request
rows, so an oracle and a vector run of the same config produce
*identical* event streams (pinned by the differential test and a content
golden).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.sketch import DEFAULT_SKETCH_CAPACITY, QuantileSketch

__all__ = [
    "DEFAULT_MAX_LIFECYCLE_EVENTS",
    "DROP_REASONS",
    "FUNNEL_MILESTONES",
    "NULL_PROBES",
    "NullProbeSet",
    "ProbeSet",
    "SegmentLifecycleProbe",
    "StartupFunnelProbe",
    "SwarmHealthProbe",
    "STAGE_ASSIGNED",
    "STAGE_DELIVERED",
    "STAGE_DROPPED",
    "STAGE_MISSED",
    "STAGE_NAMES",
    "STAGE_PLAYED",
    "STAGE_REQUESTED",
    "STAGE_SCHEDULED",
]

#: Lifecycle ring-buffer capacity (events, not bytes); matches the
#: tracer's keep-first-N-then-count-drops policy.
DEFAULT_MAX_LIFECYCLE_EVENTS = 200_000

# -- lifecycle stage codes (the ``stage`` column) --------------------------- #
STAGE_REQUESTED = 0   #: peer put the segment on this period's request list
STAGE_ASSIGNED = 1    #: greedy assignment chose a supplier for it
STAGE_SCHEDULED = 2   #: request issued; value = expected receive time (s)
STAGE_DELIVERED = 3   #: segment arrived; value = transfer delay (s)
STAGE_DROPPED = 4     #: request failed; value = drop-reason code
STAGE_PLAYED = 5      #: playback advanced; value = segments played this period
STAGE_MISSED = 6      #: playback stalled on a missing segment (deadline miss)

#: ``stage`` code -> name, index-aligned with the codes above.
STAGE_NAMES: Tuple[str, ...] = (
    "requested", "assigned", "scheduled", "delivered", "dropped",
    "played", "missed_deadline",
)

#: ``value`` codes of :data:`STAGE_DROPPED` events.
DROP_REASONS: Tuple[str, ...] = ("supplier_gone", "no_budget", "net_loss")
DROP_SUPPLIER_GONE = 0
DROP_NO_BUDGET = 1
DROP_NET_LOSS = 2

#: Startup-funnel milestones, in funnel order.
FUNNEL_MILESTONES: Tuple[str, ...] = (
    "joined", "first_map", "first_segment", "playback",
)


class SegmentLifecycleProbe:
    """Bounded struct-of-arrays buffer of segment-lifecycle events.

    Columns (index-aligned): ``time`` (sim seconds), ``period`` (the
    scheduling round the event belongs to), ``peer``/``seg``/``supplier``
    (ids; supplier ``-1`` when not applicable) and ``value`` (stage
    specific, see the stage-code docs).  Keep-first-N: once ``capacity``
    events are held, further appends only increment :attr:`dropped`.
    """

    __slots__ = ("capacity", "times", "periods", "peers", "segs",
                 "stages", "suppliers", "values", "dropped")

    def __init__(self, capacity: int = DEFAULT_MAX_LIFECYCLE_EVENTS) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.times: List[float] = []
        self.periods: List[int] = []
        self.peers: List[int] = []
        self.segs: List[int] = []
        self.stages: List[int] = []
        self.suppliers: List[int] = []
        self.values: List[float] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: float, period: int, peer: int, seg: int,
               stage: int, supplier: int = -1, value: float = 0.0) -> None:
        """Record one event (or count it as dropped when full)."""
        if len(self.times) >= self.capacity:
            self.dropped += 1
            return
        self.times.append(float(time))
        self.periods.append(int(period))
        self.peers.append(int(peer))
        self.segs.append(int(seg))
        self.stages.append(int(stage))
        self.suppliers.append(int(supplier))
        self.values.append(float(value))

    def rows(self, *, peer: Optional[int] = None,
             seg: Optional[int] = None) -> List[Dict[str, Any]]:
        """Events as dicts (optionally filtered), in emission order."""
        out = []
        for i in range(len(self.times)):
            if peer is not None and self.peers[i] != peer:
                continue
            if seg is not None and self.segs[i] != seg:
                continue
            out.append({
                "time": self.times[i],
                "period": self.periods[i],
                "peer": self.peers[i],
                "seg": self.segs[i],
                "stage": STAGE_NAMES[self.stages[i]],
                "supplier": self.suppliers[i],
                "value": self.values[i],
            })
        return out

    def stage_counts(self) -> Dict[str, int]:
        """Recorded events per stage name (stages with zero events omitted)."""
        counts: Dict[str, int] = {}
        for code in self.stages:
            name = STAGE_NAMES[code]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def drop_reason_counts(self) -> Dict[str, int]:
        """DROPPED events per reason name."""
        counts: Dict[str, int] = {}
        for i, code in enumerate(self.stages):
            if code != STAGE_DROPPED:
                continue
            name = DROP_REASONS[int(self.values[i])]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def snapshot(self) -> Dict[str, Any]:
        """The lifecycle summary embedded in the telemetry document."""
        return {
            "events": len(self.times),
            "dropped": self.dropped,
            "stages": self.stage_counts(),
            "drop_reasons": self.drop_reason_counts(),
        }


class SwarmHealthProbe:
    """One struct-of-arrays row per scheduling period.

    ``sample`` computes the buffer-fill percentiles through an exact
    (below-capacity) :class:`QuantileSketch`, merges the fills into a
    cumulative run-level sketch, and appends one row.  Bounded like the
    lifecycle buffer.
    """

    __slots__ = ("capacity", "sketch_capacity", "times", "labels", "peers",
                 "fill_p10", "fill_p50", "fill_p90", "fill_mean", "pending",
                 "utilisation", "requests", "failed", "delivered",
                 "fill_sketch", "dropped")

    def __init__(self, capacity: int = 100_000, *,
                 sketch_capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sketch_capacity = sketch_capacity
        self.times: List[float] = []
        self.labels: List[str] = []
        self.peers: List[int] = []
        self.fill_p10: List[float] = []
        self.fill_p50: List[float] = []
        self.fill_p90: List[float] = []
        self.fill_mean: List[float] = []
        self.pending: List[int] = []
        self.utilisation: List[float] = []
        self.requests: List[int] = []
        self.failed: List[int] = []
        self.delivered: List[int] = []
        self.fill_sketch = QuantileSketch(capacity=sketch_capacity)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.times)

    def sample(self, time: float, label: str, buffer_fills: Sequence[int],
               *, pending: int, utilisation: float, requests: int,
               failed: int, delivered: int) -> None:
        """Record one period's swarm-health row."""
        if len(self.times) >= self.capacity:
            self.dropped += 1
            return
        sketch = QuantileSketch(capacity=self.sketch_capacity)
        sketch.extend(float(fill) for fill in buffer_fills)
        self.fill_sketch.merge(sketch)
        self.times.append(float(time))
        self.labels.append(str(label))
        self.peers.append(len(buffer_fills))
        if sketch.count:
            p10, p50, p90 = sketch.percentiles((10.0, 50.0, 90.0))
            mean = sketch.mean
        else:
            p10 = p50 = p90 = mean = 0.0
        self.fill_p10.append(p10)
        self.fill_p50.append(p50)
        self.fill_p90.append(p90)
        self.fill_mean.append(mean)
        self.pending.append(int(pending))
        self.utilisation.append(float(utilisation))
        self.requests.append(int(requests))
        self.failed.append(int(failed))
        self.delivered.append(int(delivered))

    def rows(self, *, label: Optional[str] = None) -> List[Dict[str, Any]]:
        """Health rows as dicts (optionally one session label only)."""
        out = []
        for i in range(len(self.times)):
            if label is not None and self.labels[i] != label:
                continue
            out.append({
                "time": self.times[i],
                "label": self.labels[i],
                "peers": self.peers[i],
                "fill_p10": self.fill_p10[i],
                "fill_p50": self.fill_p50[i],
                "fill_p90": self.fill_p90[i],
                "fill_mean": round(self.fill_mean[i], 4),
                "pending": self.pending[i],
                "utilisation": round(self.utilisation[i], 4),
                "requests": self.requests[i],
                "failed": self.failed[i],
                "delivered": self.delivered[i],
            })
        return out

    def snapshot(self) -> Dict[str, Any]:
        """The health series embedded in the telemetry document."""
        fill = {"count": self.fill_sketch.count}
        if self.fill_sketch.count:
            fill["mean"] = round(self.fill_sketch.mean, 4)
            for q in (10.0, 50.0, 90.0):
                fill[f"p{int(q)}"] = self.fill_sketch.percentile(q)
        return {
            "periods": len(self.times),
            "dropped": self.dropped,
            "buffer_fill": fill,
            "series": self.rows(),
        }


class StartupFunnelProbe:
    """Set-once per-peer milestones: joined -> first_map -> first_segment
    -> playback (all sim-time seconds)."""

    __slots__ = ("_marks",)

    def __init__(self) -> None:
        # (label, peer) -> {milestone: time}; insertion order = join order.
        self._marks: Dict[Tuple[str, int], Dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self._marks)

    def mark(self, label: str, peer: int, milestone: str, time: float) -> None:
        """Record a milestone the first time it is reported (set-once)."""
        record = self._marks.setdefault((str(label), int(peer)), {})
        if milestone not in record:
            record[milestone] = float(time)

    def seen(self, label: str, peer: int, milestone: str) -> bool:
        """Whether the milestone is already recorded for the peer."""
        return milestone in self._marks.get((str(label), int(peer)), ())

    def peer_rows(self, *, label: Optional[str] = None) -> List[Dict[str, Any]]:
        """One row per peer with every recorded milestone time."""
        out = []
        for (row_label, peer), record in self._marks.items():
            if label is not None and row_label != label:
                continue
            row: Dict[str, Any] = {"label": row_label, "peer": peer}
            for milestone in FUNNEL_MILESTONES:
                row[milestone] = record.get(milestone)
            out.append(row)
        return out

    def funnel_rows(self) -> List[Dict[str, Any]]:
        """The aggregated funnel: per label, how many peers reached each
        milestone and the mean time-since-join to reach it."""
        by_label: Dict[str, List[Dict[str, float]]] = {}
        for (label, _peer), record in self._marks.items():
            by_label.setdefault(label, []).append(record)
        rows = []
        for label in sorted(by_label):
            records = by_label[label]
            row: Dict[str, Any] = {"label": label}
            for milestone in FUNNEL_MILESTONES:
                reached = [r for r in records if milestone in r]
                row[milestone] = len(reached)
                if milestone != "joined":
                    deltas = [r[milestone] - r["joined"] for r in reached
                              if "joined" in r]
                    row[f"{milestone}_mean_s"] = (
                        round(sum(deltas) / len(deltas), 4) if deltas else None
                    )
            rows.append(row)
        return rows

    def snapshot(self) -> Dict[str, Any]:
        return {"peers": len(self._marks), "rows": self.funnel_rows()}


class ProbeSet:
    """The live probe facade a :class:`~repro.obs.telemetry.Telemetry`
    carries when probes are requested."""

    enabled = True

    def __init__(self, *, max_lifecycle_events: int = DEFAULT_MAX_LIFECYCLE_EVENTS,
                 sketch_capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        self.lifecycle = SegmentLifecycleProbe(max_lifecycle_events)
        self.health = SwarmHealthProbe(sketch_capacity=sketch_capacity)
        self.funnel = StartupFunnelProbe()

    def snapshot(self) -> Dict[str, Any]:
        """The ``probes`` block of the telemetry document."""
        return {
            "enabled": True,
            "lifecycle": self.lifecycle.snapshot(),
            "health": self.health.snapshot(),
            "funnel": self.funnel.snapshot(),
        }


class NullProbeSet:
    """The disabled probe set: it has no probes, so every probe call is
    guarded by :attr:`enabled`."""

    enabled = False

    def snapshot(self) -> Dict[str, Any]:
        return {"enabled": False}


#: The shared disabled probe set (probes' default state).
NULL_PROBES = NullProbeSet()
