"""Mergeable streaming aggregates for sharded universe runs.

The sharded runtime (:mod:`repro.dist`) never ships raw per-peer results
back to the parent process: each shard reduces the per-peer zap-time
distribution of its channels into a :class:`QuantileSketch` plus a
:class:`StreamAccumulator`, and the parent merges the per-shard aggregates.
Memory therefore stays O(shard), not O(universe) -- the property that lets
``repro universe run --viewers 1000000`` complete on one box.

Exactness contract
------------------
The sketch is **exact** while the number of inserted samples stays at or
below its ``capacity``: every sample is retained with weight one and
:meth:`QuantileSketch.percentile` computes the same linear-interpolation
percentile as ``numpy.percentile`` -- hence the same values as
:func:`repro.metrics.collectors.switch_time_stats` over the pooled samples.
Beyond the capacity the sketch compresses deterministically into
equal-count centroid bins; percentiles then interpolate over the weighted
centroids and are only guaranteed to lie within a pinned relative
tolerance of the exact answer (``tests/test_metrics_sketch.py`` pins
both halves of the contract).

Determinism
-----------
Compression and merging are pure functions of the inserted multiset and
the merge order; the sharded runner always merges per-shard sketches in
shard-id order, so repeated runs -- interrupted or not -- aggregate to
bit-identical sketches.  ``to_dict``/``from_dict`` round-trip exactly
through JSON (floats survive via repr), which is what lets the checkpoint
journal persist shard aggregates losslessly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "DEFAULT_SKETCH_CAPACITY",
    "QuantileSketch",
    "StreamAccumulator",
    "sketch_of",
]

#: Default centroid capacity.  8192 raw samples cover every shipped
#: universe exactly; beyond that the compressed relative error on the
#: pinned percentiles stays well under the 1% contract tolerance.
DEFAULT_SKETCH_CAPACITY: int = 8192


@dataclass
class StreamAccumulator:
    """Mergeable count/sum/min/max accumulator (exact, order-independent)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float, weight: int = 1) -> None:
        """Fold one sample (or ``weight`` identical samples) in."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        value = float(value)
        self.count += int(weight)
        self.total += value * weight
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "StreamAccumulator") -> None:
        """Fold another accumulator in (exact for count and sum)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the folded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (``inf`` sentinels map to ``None``)."""
        return {
            "count": self.count,
            "total": self.total,
            "minimum": None if self.count == 0 else self.minimum,
            "maximum": None if self.count == 0 else self.maximum,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "StreamAccumulator":
        """Rebuild from :meth:`to_dict` output (exact round trip)."""
        count = int(payload["count"])
        return StreamAccumulator(
            count=count,
            total=float(payload["total"]),
            minimum=float("inf") if count == 0 else float(payload["minimum"]),
            maximum=float("-inf") if count == 0 else float(payload["maximum"]),
        )


@dataclass
class QuantileSketch:
    """A bounded-memory, mergeable quantile sketch over float samples.

    Internally a sorted list of ``(value, weight)`` centroids with integer
    weights.  While every weight is one (no compression has happened) the
    sketch is a verbatim multiset of the samples and percentiles follow
    the rule of ``numpy.percentile`` -- bit-identical to the in-memory
    statistics.  Once the centroid count exceeds ``capacity`` the sketch
    collapses into ``capacity`` equal-count bins (weighted means), after
    which percentiles are linear interpolations over the conceptual
    expansion of the centroids.
    """

    capacity: int = DEFAULT_SKETCH_CAPACITY
    #: Parallel arrays kept sorted by value; weights are sample counts.
    values: List[float] = field(default_factory=list)
    weights: List[int] = field(default_factory=list)
    #: Whether any lossy compression has happened (sticky).
    compressed: bool = False
    #: Exact extremes of every inserted sample.  Compression replaces tail
    #: samples with centroid means, so the centroid range understates the
    #: true range; these survive ``add``/``merge``/serialisation and pin
    #: ``percentile(0)``/``percentile(100)``.
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if self.values:
            # Direct construction from bare centroids (e.g. a payload
            # written before the extremes were recorded): the centroid
            # range is the best available bound -- and exact whenever the
            # sketch is uncompressed.
            self.minimum = min(self.minimum, min(self.values))
            self.maximum = max(self.maximum, max(self.values))

    # -- ingestion ------------------------------------------------------- #
    @property
    def count(self) -> int:
        """Total number of samples folded in (compression preserves it)."""
        return int(sum(self.weights))

    @property
    def exact(self) -> bool:
        """Whether percentiles are still exact (no compression happened)."""
        return not self.compressed

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.extend([value])

    def extend(self, samples: Iterable[float]) -> None:
        """Fold a batch of samples in (one sort + at most one compression)."""
        fresh = [float(v) for v in samples]
        if not fresh:
            return
        self.minimum = min(self.minimum, min(fresh))
        self.maximum = max(self.maximum, max(fresh))
        self.values.extend(fresh)
        self.weights.extend([1] * len(fresh))
        self._normalise()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in; exactness survives while sizes allow it."""
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.values.extend(other.values)
        self.weights.extend(int(w) for w in other.weights)
        self.compressed = self.compressed or other.compressed
        self._normalise()

    def _normalise(self) -> None:
        """Restore the sorted-centroid invariant, compressing if oversize.

        A stable index sort: the order ``numpy.argsort(values,
        kind="stable")`` gives (equal values, ``-0.0`` and ``0.0`` included,
        keep their insertion order; samples are never NaN).
        """
        order = sorted(range(len(self.values)), key=self.values.__getitem__)
        values = [self.values[i] for i in order]
        weights = [self.weights[i] for i in order]
        if len(values) > self.capacity:
            values, weights = _compress(values, weights, self.capacity)
            self.compressed = True
        self.values = values
        self.weights = weights

    # -- queries --------------------------------------------------------- #
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (linear interpolation; 0.0 when empty).

        Both modes are plain Python that repeats NumPy's arithmetic step for
        step, so results are bit-identical to it for finite samples
        (``tests/test_metrics_sketch.py`` holds the property tests):

        * exact mode is ``numpy.percentile(values, q)``, ``method="linear"``:
          virtual index ``(n - 1) * (q / 100)``, neighbours ``a`` and ``b``,
          ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` once
          ``g >= 0.5``; ``q`` outside ``[0, 100]`` raises ``ValueError``;
        * compressed mode is ``numpy.interp(h, midpoints, values)`` with the
          centroid means placed at their bins' index midpoints
          ``cumsum(w) - w / 2 - 0.5`` (with unit weights 0, 1, 2, ... --
          the formula of the exact mode), never materialising the expanded
          samples.  The tails are pinned to the exact extremes:
          interpolation alone would clamp ``q -> 0/100`` to the first/last
          *centroid mean*, shrinking the reported range.
        """
        if not self.values:
            return 0.0
        values = self.values
        fraction = float(q) / 100.0
        if not self.compressed:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("Percentiles must be in the range [0, 100]")
            last = len(values) - 1
            h = last * fraction
            if h >= last:  # NumPy indexes both neighbours as -1 here
                low, high, g = last, last, h + 1.0
            else:
                low = int(h)
                high, g = low + 1, h - low
            a, b = values[low], values[high]
            return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
        if float(q) <= 0.0:
            return float(self.minimum)
        if float(q) >= 100.0:
            return float(self.maximum)
        # Fractional order-statistic index of the percentile over the
        # conceptual expansion of the centroids, whose bin ``i`` covers the
        # indices ``above[i] - w[i] .. above[i] - 1`` around its midpoint.
        above = list(accumulate(self.weights))
        h = (above[-1] - 1) * fraction

        def midpoint(i: int) -> float:
            return above[i] - self.weights[i] / 2.0 - 0.5

        j = bisect_right(above, h)  # the bin whose indices hold h
        if midpoint(j) > h:
            j -= 1  # now midpoint(j) <= h < midpoint(j + 1)
        if j < 0:
            return values[0]
        if j >= len(values) - 1:
            return values[-1]
        if midpoint(j) == h:
            return values[j]
        slope = (values[j + 1] - values[j]) / (midpoint(j + 1) - midpoint(j))
        return slope * (h - midpoint(j)) + values[j]

    def percentiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """Several percentiles at once."""
        return tuple(self.percentile(q) for q in qs)

    @property
    def mean(self) -> float:
        """Weighted mean of the centroids (exact: compression is centroidal)."""
        total = self.count
        if total == 0:
            return 0.0
        import numpy as np  # deferred: BLAS rounding is not worth replicating

        return float(
            np.dot(
                np.asarray(self.values, dtype=float),
                np.asarray(self.weights, dtype=float),
            )
            / total
        )

    # -- serialisation --------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; exact float round trip via :meth:`from_dict`."""
        return {
            "capacity": self.capacity,
            "values": list(self.values),
            "weights": list(self.weights),
            "compressed": self.compressed,
            "minimum": None if not self.values else self.minimum,
            "maximum": None if not self.values else self.maximum,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "QuantileSketch":
        """Rebuild from :meth:`to_dict` output (exact round trip).

        Payloads written before the exact extremes were recorded load with
        the centroid range as fallback (``__post_init__`` derives it).
        """
        minimum = payload.get("minimum")
        maximum = payload.get("maximum")
        return QuantileSketch(
            capacity=int(payload["capacity"]),
            values=[float(v) for v in payload["values"]],
            weights=[int(w) for w in payload["weights"]],
            compressed=bool(payload["compressed"]),
            minimum=float("inf") if minimum is None else float(minimum),
            maximum=float("-inf") if maximum is None else float(maximum),
        )


def _compress(
    values: Sequence[float], weights: Sequence[int], capacity: int
) -> Tuple[List[float], List[int]]:
    """Collapse sorted centroids into ``capacity`` equal-count bins.

    Bin boundaries are drawn at multiples of ``total / capacity`` over the
    cumulative weight, so the result depends only on the input multiset --
    never on how it was accumulated.  Weights stay integral and their sum
    is preserved exactly.
    """
    import numpy as np  # deferred: only an over-capacity merge pays for it

    weights_arr = np.array(weights, dtype=np.int64)  # a copy: bins mutate it
    total = int(weights_arr.sum())
    cumulative = np.cumsum(weights_arr)
    # Target cumulative count at the end of each bin (last bin takes the
    # remainder, keeping the weight sum exact under integer arithmetic).
    edges = [(total * (b + 1)) // capacity for b in range(capacity)]
    out_values: List[float] = []
    out_weights: List[int] = []
    start = 0  # first centroid index of the current bin
    consumed = 0  # cumulative weight already binned
    for edge in edges:
        if edge <= consumed:
            continue
        # Centroids whose cumulative weight falls inside this bin.
        stop = int(np.searchsorted(cumulative, edge, side="left")) + 1
        chunk_values = np.asarray(values[start:stop], dtype=float)
        chunk_weights = weights_arr[start:stop].astype(np.float64).copy()
        # The boundary centroid may straddle the edge: split its weight.
        overflow = int(cumulative[stop - 1]) - edge
        if overflow > 0:
            chunk_weights[-1] -= overflow
        weight = edge - consumed
        out_values.append(float(np.dot(chunk_values, chunk_weights) / weight))
        out_weights.append(int(weight))
        consumed = edge
        if overflow > 0:
            # The straddling centroid keeps its absolute position in
            # ``cumulative``; only its remaining weight carries forward.
            start = stop - 1
            weights_arr[stop - 1] = overflow
        else:
            start = stop
    return out_values, out_weights


def sketch_of(
    samples: Iterable[float], *, capacity: int = DEFAULT_SKETCH_CAPACITY
) -> QuantileSketch:
    """Build a sketch over ``samples`` in one shot."""
    sketch = QuantileSketch(capacity=capacity)
    sketch.extend(samples)
    return sketch
