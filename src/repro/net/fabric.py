"""The network fabric: the layer between peers and the simulation engine.

A :class:`NetworkFabric` answers, for every protocol exchange of a
:class:`~repro.streaming.session.SwitchSession`, two questions:

* does this message arrive at all? (loss on either last mile), and
* when does it arrive? (backbone latency + last miles + jitter).

Two implementations ship:

:class:`IdealFabric`
    The paper's model: every message is delivered instantly.  It consumes
    **no randomness** and returns constants, so a session running on it is
    bit-for-bit identical to a session built before the network layer
    existed -- the property the regression suite pins down.

:class:`LatencyFabric`
    A :class:`~repro.net.topology.NetTopology` plus a
    :class:`~repro.net.link.LinkModel`: peers are assigned to regions
    (weighted by region population weights, with per-peer pinning for
    region-assigned :class:`~repro.streaming.bandwidth.PeerClass` es),
    buffer-map pulls can be lost (the peer simply retries next period --
    pull-based gossip is self-healing), and segment deliveries are
    *scheduled* on the engine at ``now + delay`` instead of applied
    synchronously, so latency genuinely postpones availability.

The session builds its fabric from ``SessionConfig.topology`` (a named
library topology) and its own ``"net"`` random stream, which keeps paired
fast-vs-normal comparisons, multi-process universes and store replays
deterministic from the one experiment seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.net.link import LinkModel
from repro.net.topology import NetTopology

__all__ = ["NetworkFabric", "IdealFabric", "LatencyFabric", "build_fabric"]


class NetworkFabric:
    """Abstract interface the streaming session programs against."""

    #: Short fabric label for reports.
    name: str = "abstract"
    #: The region model, when there is one.
    topology: Optional[NetTopology] = None

    # -- region assignment --------------------------------------------- #
    def assign_regions(
        self, node_ids: Iterable[int], pinned: Optional[Mapping[int, str]] = None
    ) -> None:
        """Assign every node to a region (no-op for the ideal fabric)."""
        raise NotImplementedError

    def assign_joiner(self, node_id: int, region: str = "") -> None:
        """Assign a mid-simulation joiner to a region."""
        raise NotImplementedError

    def region_of(self, node_id: int) -> str:
        """Region name of a node (empty when regions are not modelled)."""
        raise NotImplementedError

    def region_index_of(self, node_id: int) -> Optional[int]:
        """Region matrix index of a node (``None`` when not modelled)."""
        raise NotImplementedError

    # -- message transmission ------------------------------------------ #
    def control_transfer(self, src: int, dst: int) -> Optional[float]:
        """One control-plane message (buffer-map pull): delay or ``None``."""
        raise NotImplementedError

    def data_transfer(self, src: int, dst: int) -> Optional[float]:
        """One data-plane message (segment request/response): delay or ``None``."""
        raise NotImplementedError

    # -- reporting ------------------------------------------------------ #
    @property
    def locality_bias(self) -> float:
        """Same-region partner weight for locality-aware membership."""
        return 1.0

    def stats(self) -> Dict[str, float]:
        """Cumulative fabric counters for reports (empty when trivial)."""
        return {}


class IdealFabric(NetworkFabric):
    """Zero-latency, lossless network: the paper's implicit model.

    Every method returns a constant and no random stream is consumed, so
    sessions on the ideal fabric reproduce the pre-network-layer
    simulator's results bit for bit.
    """

    name = "ideal"

    def assign_regions(
        self, node_ids: Iterable[int], pinned: Optional[Mapping[int, str]] = None
    ) -> None:
        return None

    def assign_joiner(self, node_id: int, region: str = "") -> None:
        return None

    def region_of(self, node_id: int) -> str:
        return ""

    def region_index_of(self, node_id: int) -> Optional[int]:
        return None

    def data_transfer(self, src: int, dst: int) -> Optional[float]:
        return 0.0

    control_transfer = data_transfer


class LatencyFabric(NetworkFabric):
    """A fabric backed by a region topology and a stochastic link model.

    Parameters
    ----------
    topology:
        The region model.
    rng:
        Deterministic generator for region assignment, loss and jitter
        (the session passes its named ``"net"`` stream).  The fabric's
        :class:`~repro.net.link.LinkModel` becomes its only consumer; see
        the RNG ownership rule in :mod:`repro.net.link`.
    """

    def __init__(self, topology: NetTopology, rng: np.random.Generator) -> None:
        self.name = topology.name
        self.topology = topology
        # The link model owns ``rng``: region draws go through its variate
        # stream too, so the doubles are consumed in simulation order.
        self.link = LinkModel(topology, rng)
        self._region_index: Dict[int, int] = {}
        # Inverse-CDF table of the region weights, built the way
        # ``Generator.choice(n, p=weights)`` builds its own.
        cdf = np.asarray(topology.weights, dtype=float).cumsum()
        cdf /= cdf[-1]
        self._region_cdf = cdf

    # -- region assignment --------------------------------------------- #
    def _draw_regions(self, count: int) -> List[int]:
        """``count`` weighted region indices off the link model's stream."""
        return self._region_cdf.searchsorted(
            self.link.uniforms(count), side="right"
        ).tolist()

    def assign_regions(
        self, node_ids: Iterable[int], pinned: Optional[Mapping[int, str]] = None
    ) -> None:
        """Weighted-random region assignment, stable in sorted node order.

        ``pinned`` maps node ids to region names that must win over the
        random draw (peer classes pinned to a region).  The random draw is
        consumed for every node regardless, so pinning a class never
        perturbs the other nodes' assignments.
        """
        topology = self.topology
        assert topology is not None
        ordered = sorted(int(n) for n in node_ids)
        pinned = pinned or {}
        for node_id, draw in zip(ordered, self._draw_regions(len(ordered))):
            region_name = pinned.get(node_id, "")
            if region_name:
                self._region_index[node_id] = topology.region_index(region_name)
            else:
                self._region_index[node_id] = draw

    def assign_joiner(self, node_id: int, region: str = "") -> None:
        topology = self.topology
        assert topology is not None
        (draw,) = self._draw_regions(1)
        if region:
            draw = topology.region_index(region)
        self._region_index[int(node_id)] = draw

    def region_of(self, node_id: int) -> str:
        index = self._region_index.get(int(node_id))
        if index is None:
            return ""
        return self.topology.regions[index].name  # type: ignore[union-attr]

    def region_index_of(self, node_id: int) -> Optional[int]:
        return self._region_index.get(int(node_id))

    def region_counts(self) -> Dict[str, int]:
        """Current number of assigned nodes per region name."""
        counts: Dict[str, int] = {r.name: 0 for r in self.topology.regions}  # type: ignore[union-attr]
        for index in self._region_index.values():
            counts[self.topology.regions[index].name] += 1  # type: ignore[union-attr]
        return counts

    # -- message transmission ------------------------------------------ #
    def data_transfer(self, src: int, dst: int) -> Optional[float]:
        regions = self._region_index
        try:
            src_region, dst_region = regions[src], regions[dst]
        except KeyError:  # a node the fabric never saw (defensive): treat as local
            return 0.0
        return self.link.transfer(src_region, dst_region)

    #: Both planes draw the same way; two names, so each is timed on its own.
    control_transfer = data_transfer

    # -- reporting ------------------------------------------------------ #
    @property
    def locality_bias(self) -> float:
        return self.topology.locality_bias  # type: ignore[union-attr]

    def stats(self) -> Dict[str, float]:
        return {
            "messages": float(self.link.messages),
            "dropped": float(self.link.dropped),
            "drop_ratio": (
                self.link.dropped / self.link.messages if self.link.messages else 0.0
            ),
            "mean_delay_s": self.link.mean_delay,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyFabric(topology={self.name!r}, nodes={len(self._region_index)})"


def build_fabric(
    topology: Optional[NetTopology], rng: Optional[np.random.Generator]
) -> NetworkFabric:
    """The fabric for ``topology``: ideal when ``None``, latency-backed otherwise."""
    if topology is None:
        return IdealFabric()
    if rng is None:
        raise ValueError("a latency fabric needs a random generator")
    return LatencyFabric(topology, rng)
