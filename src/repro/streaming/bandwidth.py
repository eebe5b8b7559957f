"""Bandwidth sampling and per-period outbound capacity accounting.

The paper's configuration (Section 5.1): every node gets a random inbound
rate between 300 kbit/s and 1 Mbit/s -- i.e. 10 to 33 segments/second --
with an *average of 450 kbit/s* (15 segments/second); outbound rates are
assigned "alike".  The source node has zero inbound rate and a much larger
outbound rate.

Because a uniform draw over [10, 33] would average 21.5, the paper's stated
average of 15 implies a skewed distribution; :func:`sample_rates` uses a
shifted exponential truncated to the interval, which reproduces both the
range and the mean (most nodes sit just above the playback rate, a long
tail of well-provisioned nodes reaches 33).

:class:`OutboundLedger` enforces the supplier-side capacity constraint when
requests are executed: each node can upload at most ``outbound_rate * tau``
segments per scheduling period, shared among all requesting neighbours in
request order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Sequence

from repro.streaming.config import PeerClass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BandwidthProfile",
    "PeerClass",
    "draw_class_indices",
    "sample_rates",
    "OutboundLedger",
]


@dataclass(frozen=True)
class BandwidthProfile:
    """Inbound/outbound rate of one node, in segments per second.

    Attributes
    ----------
    inbound:
        Download capacity ``I`` (segments/second).
    outbound:
        Upload capacity ``o`` (segments/second).
    """

    inbound: float
    outbound: float

    def __post_init__(self) -> None:
        if self.inbound < 0 or self.outbound < 0:
            raise ValueError("bandwidth rates must be non-negative")


def draw_class_indices(
    count: int,
    classes: Sequence[PeerClass],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a class index for each of ``count`` peers, weighted by fraction."""
    if not classes:
        raise ValueError("need at least one peer class")
    import numpy as np  # deferred: store replays load this module for its records

    weights = np.array([cls.fraction for cls in classes], dtype=float)
    weights = weights / weights.sum()
    return rng.choice(len(classes), size=count, p=weights)


def sample_rates(
    count: int,
    rng: np.random.Generator,
    *,
    low: float = 10.0,
    high: float = 33.0,
    mean: float = 15.0,
) -> np.ndarray:
    """Sample ``count`` rates from the paper's skewed [low, high] distribution.

    A shifted exponential ``low + Exp(mean - low)`` truncated at ``high``.
    With the default parameters (10, 33, 15) the truncation affects ~1 % of
    the mass, so the sample mean stays within a few percent of ``mean``.

    Raises
    ------
    ValueError
        If the parameters are inconsistent (``low >= high`` or the target
        mean lies outside ``(low, high)``).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if low >= high:
        raise ValueError(f"low must be < high, got low={low}, high={high}")
    if not (low < mean < high):
        raise ValueError(f"mean must lie strictly between low and high, got {mean}")
    scale = mean - low
    values = low + rng.exponential(scale, size=count)
    return values.clip(low, high)


class OutboundLedger:
    """Per-period upload budgets, consumed as transfers are executed.

    The session's one table of upload rates: every node it admits is
    registered here (:meth:`add_node`) and every leaver removed.

    Parameters
    ----------
    rates:
        Mapping from node id to outbound rate (segments/second).
    period:
        Scheduling period ``tau`` (seconds).

    Notes
    -----
    Budgets are expressed in whole segments per period.  Fractional capacity
    accumulates as *credit* across periods (a node with 1.5 segments/period
    serves 1 segment in odd periods and 2 in even ones), which avoids
    systematically under-using slow uploaders.
    """

    def __init__(self, rates: Mapping[int, float], period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._rates: Dict[int, float] = {int(k): float(v) for k, v in rates.items()}
        self._period = float(period)
        self._credit: Dict[int, float] = {k: 0.0 for k in self._rates}
        self._budget: Dict[int, float] = {}
        self._scale = 1.0
        self.served_total = 0
        self.rejected_total = 0
        self.reset_period()

    # ------------------------------------------------------------------ #
    def reset_period(self, scale: float = 1.0) -> None:
        """Start a new scheduling period: refill every node's budget.

        ``scale`` multiplies every refill for this period only -- the
        workload engine's congestion regimes (a scale of 0.5 halves all
        upload capacity for the period).  Credit carried over from earlier
        periods is unaffected.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self._scale = float(scale)
        for node_id, rate in self._rates.items():
            self._budget[node_id] = rate * self._period * self._scale \
                + self._credit.get(node_id, 0.0)

    def end_period(self) -> None:
        """Close the period: carry at most one segment of unused credit over."""
        for node_id, remaining in self._budget.items():
            self._credit[node_id] = min(max(remaining, 0.0), 1.0)

    def add_node(self, node_id: int, outbound_rate: float) -> None:
        """Register a node, with this period's refill as its first budget."""
        node_id = int(node_id)
        self._rates[node_id] = float(outbound_rate)
        self._credit[node_id] = 0.0
        self._budget[node_id] = float(outbound_rate) * self._period * self._scale

    def remove_node(self, node_id: int) -> None:
        """Forget a departed node (no-op if unknown)."""
        self._rates.pop(node_id, None)
        self._credit.pop(node_id, None)
        self._budget.pop(node_id, None)

    # ------------------------------------------------------------------ #
    def rate(self, node_id: int) -> float:
        """Outbound rate of ``node_id`` (segments/second; 0 if unknown)."""
        return self._rates.get(node_id, 0.0)

    def remaining(self, node_id: int) -> float:
        """Remaining upload budget of ``node_id`` this period (segments)."""
        return self._budget.get(node_id, 0.0)

    def can_serve(self, node_id: int, segments: int = 1) -> bool:
        """Whether ``node_id`` can still upload ``segments`` this period."""
        return self._budget.get(node_id, 0.0) >= segments

    def consume(self, node_id: int, segments: int = 1) -> bool:
        """Charge ``segments`` uploads to ``node_id``.

        Returns ``True`` and decrements the budget when capacity is
        available; returns ``False`` (and counts a rejection) otherwise.
        """
        budget = self._budget.get(node_id, 0.0)
        if budget >= segments:
            self._budget[node_id] = budget - segments
            self.served_total += segments
            return True
        self.rejected_total += 1
        return False

    def utilisation(self, node_ids: Iterable[int] | None = None) -> float:
        """Fraction of this period's budget already consumed (0 when idle)."""
        ids = list(node_ids) if node_ids is not None else list(self._rates)
        total = sum(
            self._rates[i] * self._period * self._scale + self._credit.get(i, 0.0)
            for i in ids if i in self._rates
        )
        left = sum(self._budget.get(i, 0.0) for i in ids)
        if total <= 0:
            return 0.0
        return max(0.0, min(1.0, 1.0 - left / total))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutboundLedger(nodes={len(self._rates)}, served={self.served_total}, "
            f"rejected={self.rejected_total})"
        )
