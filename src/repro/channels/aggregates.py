"""Per-repetition streaming aggregates of universe zap times.

Every freshly simulated universe repetition now persists, next to its
per-channel outcome table, an ``aggregates`` block: per algorithm, a
:class:`~repro.metrics.sketch.QuantileSketch` and a
:class:`~repro.metrics.sketch.StreamAccumulator` over the *pooled*
per-peer zap-time samples of the whole lineup, plus the same pair per
popularity decile and the count of peers that never finished.  The block
is what the universe-scale figures (:mod:`repro.figures.universe`) read:
they reconstruct percentiles and means in O(channels x percentiles)
without ever touching the raw per-peer outcome data.

Bit-identity contract
---------------------
Whoever runs the channels (this process or the sharded runtime's workers),
the block is built one way (:func:`repro.channels.universe.run_channel_unit`
and :func:`~repro.channels.universe.fold_units`):

1. per channel and algorithm, a *unit* aggregate
   (:func:`unit_aggregate`) over that mesh's zap-time samples
   (:func:`repro.metrics.collectors.completion_times`, in outcome order) at
   the default sketch capacity -- a pure function of the sample multiset;
2. the units folded into the repetition block in ascending channel order
   (:class:`RepAggregator`).

Identical samples plus an identical merge order make the resulting JSON
byte-identical across paths, which the figure-registry tests pin
(serial vs ``--shards 2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Sequence

from repro.metrics.sketch import (
    DEFAULT_SKETCH_CAPACITY,
    QuantileSketch,
    StreamAccumulator,
    sketch_of,
)

__all__ = [
    "unit_aggregate",
    "AlgorithmAggregate",
    "RepAggregator",
    "merge_rep_aggregates",
]


def unit_aggregate(
    samples: Iterable[float],
    unfinished: int,
    *,
    capacity: int = DEFAULT_SKETCH_CAPACITY,
) -> Dict[str, Any]:
    """One channel mesh's aggregate under one algorithm, in JSON form.

    Built in one shot from the mesh's zap-time samples, so the result is a
    pure function of the sample multiset -- the property that keeps the
    serial and pooled paths byte-identical.
    """
    stats = StreamAccumulator()
    values = [float(v) for v in samples]
    for value in values:
        stats.add(value)
    return {
        "sketch": sketch_of(values, capacity=capacity).to_dict(),
        "stats": stats.to_dict(),
        "unfinished": int(unfinished),
    }


@dataclass
class AlgorithmAggregate:
    """One algorithm's pooled zap-time aggregates (plus per-decile buckets)."""

    sketch: QuantileSketch
    stats: StreamAccumulator
    unfinished: int = 0
    deciles: Dict[int, "AlgorithmAggregate"] = field(default_factory=dict)

    @staticmethod
    def empty(capacity: int = DEFAULT_SKETCH_CAPACITY) -> "AlgorithmAggregate":
        """A fresh, sample-free aggregate."""
        return AlgorithmAggregate(
            sketch=QuantileSketch(capacity=int(capacity)),
            stats=StreamAccumulator(),
        )

    def fold_unit(self, decile: int, unit: Mapping[str, Any]) -> None:
        """Fold one channel's :func:`unit_aggregate` into the pool + its decile."""
        self._fold(unit)
        bucket = self.deciles.get(int(decile))
        if bucket is None:
            bucket = AlgorithmAggregate.empty(self.sketch.capacity)
            self.deciles[int(decile)] = bucket
        bucket._fold(unit)

    def _fold(self, unit: Mapping[str, Any]) -> None:
        self.sketch.merge(QuantileSketch.from_dict(unit["sketch"]))
        self.stats.merge(StreamAccumulator.from_dict(unit["stats"]))
        self.unfinished += int(unit["unfinished"])

    def merge(self, other: "AlgorithmAggregate") -> None:
        """Fold a whole other aggregate in (deciles matched by number).

        Merge order matters once sketches have compressed; callers must
        merge in a canonical order (the figures merge repetitions in
        ascending seed order).
        """
        self.sketch.merge(other.sketch)
        self.stats.merge(other.stats)
        self.unfinished += other.unfinished
        for decile in sorted(other.deciles):
            bucket = self.deciles.get(decile)
            if bucket is None:
                # Rebuild through the dict form: an exact copy that never
                # aliases the other aggregate's mutable sketch state.
                self.deciles[decile] = AlgorithmAggregate.from_dict(
                    other.deciles[decile].to_dict()
                )
            else:
                bucket.merge(other.deciles[decile])

    def to_dict(self, *, with_deciles: bool = True) -> Dict[str, Any]:
        """JSON form (decile keys become strings; exact float round trip)."""
        payload: Dict[str, Any] = {
            "sketch": self.sketch.to_dict(),
            "stats": self.stats.to_dict(),
            "unfinished": self.unfinished,
        }
        if with_deciles:
            payload["deciles"] = {
                str(decile): self.deciles[decile].to_dict(with_deciles=False)
                for decile in sorted(self.deciles)
            }
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "AlgorithmAggregate":
        """Rebuild from :meth:`to_dict` output (exact round trip)."""
        return AlgorithmAggregate(
            sketch=QuantileSketch.from_dict(payload["sketch"]),
            stats=StreamAccumulator.from_dict(payload["stats"]),
            unfinished=int(payload["unfinished"]),
            deciles={
                int(decile): AlgorithmAggregate.from_dict(sub)
                for decile, sub in dict(payload.get("deciles", {})).items()
            },
        )


class RepAggregator:
    """Folds per-channel unit aggregates into one repetition's block.

    Call :meth:`fold_unit` once per (algorithm, channel) **in ascending
    channel order** -- the canonical merge order every execution path
    follows, making the resulting block identical whichever path ran the
    channels.
    """

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._algorithms: Dict[str, AlgorithmAggregate] = {}

    def fold_unit(
        self, algorithm: str, decile: int, unit: Mapping[str, Any]
    ) -> None:
        """Fold one channel's :func:`unit_aggregate` under ``algorithm``."""
        aggregate = self._algorithms.get(algorithm)
        if aggregate is None:
            aggregate = AlgorithmAggregate.empty(self.capacity)
            self._algorithms[algorithm] = aggregate
        aggregate.fold_unit(decile, unit)

    def to_dict(self) -> Dict[str, Any]:
        """The repetition's ``aggregates`` block (what the store persists)."""
        payload: Dict[str, Any] = {"capacity": self.capacity}
        for name in sorted(self._algorithms):
            payload[name] = self._algorithms[name].to_dict()
        return payload


def merge_rep_aggregates(
    payloads: Sequence[Mapping[str, Any]],
) -> Dict[str, AlgorithmAggregate]:
    """Merge repetition ``aggregates`` blocks into per-algorithm aggregates.

    ``payloads`` must come in a canonical order (the figures sort by
    repetition seed): merging compressed sketches is deterministic only
    given a fixed order.  Returns ``{algorithm: AlgorithmAggregate}``.
    """
    merged: Dict[str, AlgorithmAggregate] = {}
    for payload in payloads:
        for name in sorted(payload):
            if name == "capacity":
                continue
            sub = payload[name]
            aggregate = AlgorithmAggregate.from_dict(sub)
            if name in merged:
                merged[name].merge(aggregate)
            else:
                merged[name] = aggregate
    return merged
