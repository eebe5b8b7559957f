"""The in-memory overlay graph used by the simulator.

:class:`Overlay` is a thin, undirected adjacency structure with per-node
attributes (ping time, access speed) and per-edge latencies derived from the
ping times of both endpoints.  It supports the operations the streaming
substrate and the churn model need:

* neighbour queries,
* node addition/removal (churn),
* random-edge augmentation bookkeeping,
* BFS hop distances (used by the analytic warm-up to seed per-peer lag).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.overlay.trace import TraceNode

__all__ = ["NodeInfo", "Overlay", "build_overlay_from_trace"]


@dataclass
class NodeInfo:
    """Static attributes of one overlay node.

    Attributes
    ----------
    node_id:
        Unique identifier.
    ping_ms:
        Measured ping time towards the node (milliseconds).
    speed_kbps:
        Advertised access speed (kbit/s).
    """

    node_id: int
    ping_ms: float = 50.0
    speed_kbps: float = 1000.0


class Overlay:
    """An undirected overlay graph with node attributes and edge latencies.

    Edge latency is modelled as half the sum of both endpoints' ping times
    (a crude but standard symmetric decomposition of end-to-end RTT into
    per-host access delays), expressed in **seconds**.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeInfo] = {}
        self._adj: Dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    def add_node(self, info: NodeInfo) -> None:
        """Add a node; raises ``ValueError`` if the id already exists."""
        if info.node_id in self._nodes:
            raise ValueError(f"node {info.node_id} already present")
        self._nodes[info.node_id] = info
        self._adj[info.node_id] = set()

    def remove_node(self, node_id: int) -> None:
        """Remove a node and all its incident edges."""
        if node_id not in self._nodes:
            raise KeyError(node_id)
        for other in list(self._adj[node_id]):
            self._adj[other].discard(node_id)
        del self._adj[node_id]
        del self._nodes[node_id]

    def add_edge(self, a: int, b: int) -> bool:
        """Add the undirected edge ``(a, b)``.

        Returns ``True`` if the edge was new, ``False`` if it already existed
        or is a self-loop.  Unknown endpoints raise ``KeyError``.
        """
        if a not in self._nodes:
            raise KeyError(a)
        if b not in self._nodes:
            raise KeyError(b)
        if a == b or b in self._adj[a]:
            return False
        self._adj[a].add(b)
        self._adj[b].add(a)
        return True

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the undirected edge ``(a, b)`` (no-op if absent)."""
        self._adj.get(a, set()).discard(b)
        self._adj.get(b, set()).discard(a)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> List[int]:
        """All node ids (sorted, for determinism)."""
        return sorted(self._nodes)

    def nodes(self) -> Iterator[NodeInfo]:
        """Iterate node attribute records in id order."""
        for node_id in self.node_ids:
            yield self._nodes[node_id]

    def info(self, node_id: int) -> NodeInfo:
        """Attribute record of ``node_id``."""
        return self._nodes[node_id]

    def neighbours(self, node_id: int) -> List[int]:
        """Sorted list of neighbours of ``node_id``."""
        return sorted(self._adj[node_id])

    def degree(self, node_id: int) -> int:
        """Number of neighbours of ``node_id``."""
        return len(self._adj[node_id])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(min_id, max_id)`` pairs."""
        for a in self.node_ids:
            for b in self._adj[a]:
                if a < b:
                    yield (a, b)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(s) for s in self._adj.values()) // 2

    def average_degree(self) -> float:
        """Mean node degree (0.0 for an empty overlay)."""
        if not self._nodes:
            return 0.0
        return 2.0 * self.edge_count() / len(self._nodes)

    def edge_latency(self, a: int, b: int) -> float:
        """Latency of edge ``(a, b)`` in seconds."""
        info_a, info_b = self._nodes[a], self._nodes[b]
        return (info_a.ping_ms + info_b.ping_ms) / 2.0 / 1000.0

    # ------------------------------------------------------------------ #
    # analysis helpers
    # ------------------------------------------------------------------ #
    def hop_distances_from(self, origin: int) -> Dict[int, int]:
        """BFS hop distance from ``origin`` to every reachable node.

        Unreachable nodes are absent from the returned mapping.
        """
        if origin not in self._nodes:
            raise KeyError(origin)
        dist: Dict[int, int] = {origin: 0}
        frontier: deque[int] = deque([origin])
        while frontier:
            current = frontier.popleft()
            d = dist[current]
            for nxt in self._adj[current]:
                if nxt not in dist:
                    dist[nxt] = d + 1
                    frontier.append(nxt)
        return dist

    def is_connected(self) -> bool:
        """Whether the overlay is a single connected component."""
        if not self._nodes:
            return True
        origin = next(iter(self._nodes))
        return len(self.hop_distances_from(origin)) == len(self._nodes)

    def copy(self) -> "Overlay":
        """Deep copy of the overlay (node records are copied by value)."""
        clone = Overlay()
        for info in self.nodes():
            clone.add_node(NodeInfo(info.node_id, info.ping_ms, info.speed_kbps))
        for a, b in self.edges():
            clone.add_edge(a, b)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Overlay(nodes={len(self)}, edges={self.edge_count()})"


def build_overlay_from_trace(records: Sequence[TraceNode]) -> Overlay:
    """Build an :class:`Overlay` from parsed trace records.

    Crawled neighbour references to unknown node ids are ignored (real
    crawls routinely contain dangling references to servents that went
    offline mid-crawl).
    """
    overlay = Overlay()
    known = {record.node_id for record in records}
    for record in records:
        overlay.add_node(
            NodeInfo(
                node_id=record.node_id,
                ping_ms=record.ping_ms,
                speed_kbps=record.speed_kbps,
            )
        )
    for record in records:
        for neighbour in record.neighbours:
            if neighbour in known and neighbour != record.node_id:
                overlay.add_edge(record.node_id, neighbour)
    return overlay
