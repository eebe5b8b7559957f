"""Per-message loss and delay sampling over a :class:`NetTopology`.

The :class:`LinkModel` is the stochastic half of the network layer: given
the source and destination *region indices* of a message it takes

* one uniform variate against the combined end-to-end loss probability
  (the two last miles drop independently), and
* one uniform jitter variate on top of the deterministic path latency
  (backbone entry plus both last miles).

Both come from a single :class:`numpy.random.Generator` handed over by the
caller -- in practice the session's named ``"net"``
:class:`~repro.sim.rng.RandomStreams` stream -- so results are bit-for-bit
reproducible from the experiment seed, identical between serial and
worker-pool execution, and *paired* between the fast and normal switch
algorithms (both sessions of a pair derive the same generator).

**RNG ownership.**  The link model is the *only* consumer of that
generator.  It draws the stream's doubles a block at a time
(``rng.random(n)``, the same sequence ``n`` scalar ``rng.random()`` calls
would produce) and serves them one by one, in the order the simulation
asks: loss decisions, jitter offsets and -- through :meth:`uniforms` --
the fabric's region draws all come off the one cursor.  Two consequences:
nothing else may draw from the generator (it would take doubles out of
the middle of the sequence), and the generator's state after a run is
"blocks drawn", not "variates consumed" -- nothing may read it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.net.topology import NetTopology

__all__ = ["LinkModel"]

#: doubles drawn per refill of the variate block
_BLOCK = 1024


class LinkModel:
    """Samples message loss and one-way delay between regions.

    Parameters
    ----------
    topology:
        The region model supplying latencies, jitter and loss rates.
    rng:
        Deterministic generator behind every variate; owned by the link
        model from here on (see the module docstring).
    """

    def __init__(self, topology: NetTopology, rng: np.random.Generator) -> None:
        self.topology = topology
        self._rng = rng
        self._block: List[float] = []
        self._cursor = 0
        n = topology.n_regions
        last_mile = [region.last_mile_ms for region in topology.regions]
        jitter = [region.jitter_ms for region in topology.regions]
        keep = [1.0 - region.loss for region in topology.regions]
        # Precomputed per-path rows: combined loss probability,
        # deterministic base delay (s) and total jitter half-width (s).
        self._paths = [
            [
                (
                    1.0 - keep[i] * keep[j],
                    (topology.latency_ms[i][j] + last_mile[i] + last_mile[j]) / 1000.0,
                    (jitter[i] + jitter[j]) / 1000.0,
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        #: cumulative counters, read by the fabric's statistics
        self.messages = 0
        self.dropped = 0
        self.total_delay = 0.0

    # ------------------------------------------------------------------ #
    def _next(self) -> float:
        """The next variate in ``[0, 1)`` of the stream."""
        cursor = self._cursor
        if cursor == len(self._block):
            self._block = self._rng.random(_BLOCK).tolist()
            cursor = 0
        self._cursor = cursor + 1
        return self._block[cursor]

    def uniforms(self, count: int) -> List[float]:
        """The next ``count`` variates of the stream, in order."""
        return [self._next() for _ in range(count)]

    def loss_probability(self, src_region: int, dst_region: int) -> float:
        """Combined drop probability of the two endpoints' access networks."""
        return self._paths[src_region][dst_region][0]

    def base_delay(self, src_region: int, dst_region: int) -> float:
        """Deterministic one-way path delay (backbone + both last miles), s."""
        return self._paths[src_region][dst_region][1]

    def transfer(self, src_region: int, dst_region: int) -> Optional[float]:
        """Sample one message transmission between two regions.

        Returns the one-way delay in seconds, or ``None`` when the message
        is dropped.  Exactly one variate is consumed for the loss decision
        (on a lossy path) and, when delivered and the path is jittered, one
        more for the jitter, keeping the stream deterministic per
        delivered/dropped sequence.
        """
        self.messages += 1
        loss, delay, jitter = self._paths[src_region][dst_region]
        if loss > 0.0 and self._next() < loss:
            self.dropped += 1
            return None
        if jitter > 0.0:
            # ``Generator.uniform(-1.0, 1.0)`` is ``-1.0 + 2.0 * next_double``.
            delay += jitter * (-1.0 + 2.0 * self._next())
        if delay <= 0.0:
            delay = 0.0
        self.total_delay += delay
        return delay

    @property
    def mean_delay(self) -> float:
        """Mean sampled delay over all delivered messages (seconds)."""
        delivered = self.messages - self.dropped
        return self.total_delay / delivered if delivered > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkModel(topology={self.topology.name!r}, messages={self.messages}, "
            f"dropped={self.dropped})"
        )
