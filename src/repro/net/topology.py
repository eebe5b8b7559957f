"""Regions and inter-region latency topologies.

The paper's simulation model is *network-oblivious*: buffer maps and
segments move between peers at period granularity with zero propagation
delay, so a peer in Tokyo and a peer across the street are
indistinguishable.  The :mod:`repro.net` layer makes geography a
first-class experiment axis.  A :class:`NetTopology` names a handful of
:class:`Region` objects -- each with its own last-mile delay, jitter and
loss characteristics -- and quotes a square matrix of one-way backbone
latencies between them (the diagonal is the intra-region backbone).

Topologies are frozen, validated on construction and round-trip exactly
through :func:`~repro.records.to_json` / :func:`~repro.records.from_json`;
the persistent result store fingerprints that dictionary form as ``net-*``
documents, so a changed matrix can never replay a stale result.

Examples
--------
>>> topo = NetTopology(
...     name="two-city",
...     regions=(Region("east"), Region("west")),
...     latency_ms=((5.0, 80.0), (80.0, 5.0)),
... )
>>> topo.base_latency_ms("east", "west")
80.0
>>> from repro.records import from_json, to_json
>>> from_json(NetTopology, to_json(topo)) == topo
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Region", "NetTopology"]


@dataclass(frozen=True)
class Region:
    """One named network region (a metro area, a continent, an ISP).

    Attributes
    ----------
    name:
        Region label (appears in per-region metrics and CLI tables).
    weight:
        Relative share of the peer population assigned to this region
        (weights are normalised over the topology; they need not sum to 1).
    last_mile_ms:
        Mean one-way last-mile delay added to every message that enters or
        leaves a peer in this region, in milliseconds.
    jitter_ms:
        Half-width of the uniform jitter applied per message on top of the
        last-mile delay, in milliseconds.
    loss:
        Per-message drop probability contributed by this region's access
        network (combined with the far end's as independent losses).
    """

    name: str
    weight: float = 1.0
    last_mile_ms: float = 10.0
    jitter_ms: float = 2.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"region weight must be positive, got {self.weight}")
        if self.last_mile_ms < 0 or self.jitter_ms < 0:
            raise ValueError("last_mile_ms and jitter_ms must be non-negative")
        if not (0.0 <= self.loss < 1.0):
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")


@dataclass(frozen=True)
class NetTopology:
    """A complete region model: regions plus inter-region latency matrix.

    Attributes
    ----------
    name:
        Topology label (the library registers topologies by name).
    regions:
        The region tuple; row/column ``i`` of ``latency_ms`` belongs to
        ``regions[i]``.
    latency_ms:
        Square matrix of one-way backbone latencies in milliseconds.
        ``latency_ms[i][j]`` is the delay from region ``i`` to region
        ``j`` *excluding* last-mile delays; the diagonal is the
        intra-region backbone latency.
    locality_bias:
        Weight multiplier the membership service applies to same-region
        partner candidates (1.0 = region-blind random partner selection,
        the gossip default).
    description:
        One-line human description for CLI listings.
    """

    name: str
    regions: Tuple[Region, ...]
    latency_ms: Tuple[Tuple[float, ...], ...]
    locality_bias: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("topology needs a non-empty name")
        if not isinstance(self.regions, tuple):
            object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self,
            "latency_ms",
            tuple(tuple(float(v) for v in row) for row in self.latency_ms),
        )
        if not self.regions:
            raise ValueError("topology needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"region names must be unique, got {names}")
        n = len(self.regions)
        if len(self.latency_ms) != n or any(len(row) != n for row in self.latency_ms):
            raise ValueError(
                f"latency_ms must be a {n}x{n} matrix matching the regions"
            )
        for row in self.latency_ms:
            for value in row:
                if value < 0:
                    raise ValueError(f"latencies must be non-negative, got {value}")
        if self.locality_bias < 1.0:
            raise ValueError(
                f"locality_bias must be >= 1.0, got {self.locality_bias}"
            )

    # ------------------------------------------------------------------ #
    @property
    def n_regions(self) -> int:
        """Number of regions."""
        return len(self.regions)

    @property
    def region_names(self) -> Tuple[str, ...]:
        """Region names in matrix order."""
        return tuple(region.name for region in self.regions)

    @property
    def weights(self) -> Tuple[float, ...]:
        """Normalised population weights, in matrix order."""
        total = sum(region.weight for region in self.regions)
        return tuple(region.weight / total for region in self.regions)

    @property
    def max_latency_ms(self) -> float:
        """Largest entry of the backbone latency matrix."""
        return max(value for row in self.latency_ms for value in row)

    @property
    def lossy(self) -> bool:
        """Whether any region drops messages."""
        return any(region.loss > 0 for region in self.regions)

    def region_index(self, name: str) -> int:
        """Matrix index of the region called ``name``."""
        for index, region in enumerate(self.regions):
            if region.name == name:
                return index
        raise KeyError(f"unknown region {name!r}; known: {list(self.region_names)}")

    def base_latency_ms(self, src: str, dst: str) -> float:
        """One-way backbone latency between two named regions."""
        return self.latency_ms[self.region_index(src)][self.region_index(dst)]
