"""Synthetic Gnutella-like overlay trace generation.

The original ``dss.clip2.com`` crawls are unavailable, so experiments are
run on synthetic traces that reproduce the properties the paper's simulator
actually depends on (see the substitution table in ``DESIGN.md``):

* node count (100 -- 10000),
* a sparse, connected bootstrap overlay with a heavy-tailed degree
  distribution, as observed in Gnutella crawls of that era (most servents
  had 1--3 crawled connections, a few hubs had many),
* per-node ping times with a long tail (tens of ms for well-connected
  hosts, hundreds of ms for modem users),
* per-node access speeds drawn from period-typical classes
  (modem / ISDN / cable / DSL / T1 / T3).

The generated trace is deliberately *too sparse for streaming*, just like
the real crawls, so that the random-edge augmentation step
(:func:`repro.overlay.augment.augment_to_min_degree`) is exercised exactly
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.sim.rng import RandomStreams
from repro.overlay.trace import TraceNode

__all__ = ["TraceSpec", "SyntheticTraceGenerator", "generate_trace", "PAPER_TRACE_SIZES"]


#: The overlay sizes the paper's evaluation sweeps over (Figures 6-12).
PAPER_TRACE_SIZES: tuple[int, ...] = (100, 500, 1000, 2000, 4000, 8000)

#: Access-speed classes (kbit/s) with era-appropriate prevalence.
_SPEED_CLASSES: tuple[tuple[float, float], ...] = (
    # (speed_kbps, probability)
    (56.0, 0.25),     # dial-up modem
    (128.0, 0.10),    # ISDN
    (768.0, 0.30),    # DSL
    (1500.0, 0.25),   # cable
    (10000.0, 0.08),  # T1/LAN
    (45000.0, 0.02),  # T3/campus
)


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of a synthetic crawl.

    Attributes
    ----------
    n_nodes:
        Number of servents in the crawl.
    seed:
        Root seed; two specs with the same fields produce identical traces.
    mean_degree:
        Mean number of crawled overlay edges per node (kept low on purpose;
        the paper reports the raw traces' average degree is "too small for
        media streaming").
    hub_fraction:
        Fraction of nodes acting as well-connected hubs (ultrapeer-like).
    ping_median_ms / ping_sigma:
        Parameters of the log-normal ping-time distribution.
    """

    n_nodes: int
    seed: int = 0
    mean_degree: float = 2.0
    hub_fraction: float = 0.05
    ping_median_ms: float = 80.0
    ping_sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"a trace needs at least 2 nodes, got {self.n_nodes}")
        if not (0.0 <= self.hub_fraction <= 1.0):
            raise ValueError(f"hub_fraction must be in [0, 1], got {self.hub_fraction}")
        if self.mean_degree < 1.0:
            raise ValueError(f"mean_degree must be >= 1, got {self.mean_degree}")
        if self.ping_median_ms <= 0:
            raise ValueError("ping_median_ms must be positive")


class SyntheticTraceGenerator:
    """Generates deterministic Gnutella-like traces from a :class:`TraceSpec`."""

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self._streams = RandomStreams(spec.seed).spawn(f"trace-{spec.n_nodes}")

    # ------------------------------------------------------------------ #
    def generate(self) -> List[TraceNode]:
        """Produce the trace records (connected bootstrap overlay)."""
        spec = self.spec
        n = spec.n_nodes
        rng = self._streams.get("structure")

        ping = self._sample_ping_times(n)
        speed = self._sample_speeds(n)
        adjacency = self._build_adjacency(n, rng)

        nodes: List[TraceNode] = []
        for i in range(n):
            nodes.append(
                TraceNode(
                    node_id=i,
                    ip=_fake_ip(i),
                    host=f"servent-{i}.example.net",
                    port=6346,
                    ping_ms=float(ping[i]),
                    speed_kbps=float(speed[i]),
                    neighbours=tuple(sorted(adjacency[i])),
                )
            )
        return nodes

    # ------------------------------------------------------------------ #
    def _sample_ping_times(self, n: int) -> np.ndarray:
        """Log-normal ping times, clipped to a sane [5 ms, 2000 ms] range."""
        rng = self._streams.get("ping")
        spec = self.spec
        mu = np.log(spec.ping_median_ms)
        values = rng.lognormal(mean=mu, sigma=spec.ping_sigma, size=n)
        return np.clip(values, 5.0, 2000.0)

    def _sample_speeds(self, n: int) -> np.ndarray:
        """Access speeds drawn from the era-typical class mix."""
        rng = self._streams.get("speed")
        speeds = np.array([s for s, _ in _SPEED_CLASSES])
        probs = np.array([p for _, p in _SPEED_CLASSES])
        probs = probs / probs.sum()
        idx = rng.choice(len(speeds), size=n, p=probs)
        return speeds[idx]

    def _build_adjacency(self, n: int, rng: np.random.Generator) -> List[set[int]]:
        """Build a sparse connected bootstrap overlay.

        A random spanning tree guarantees connectivity (new node attaches to
        a random existing node, hubs preferred), then extra random edges are
        added until the target mean degree is reached.  The result has a
        heavy-tailed degree distribution: hubs accumulate many edges.
        """
        spec = self.spec
        adjacency: List[set[int]] = [set() for _ in range(n)]
        n_hubs = max(1, int(round(spec.hub_fraction * n)))
        hubs = set(range(n_hubs))  # first ids act as crawl-seed hubs

        def add_edge(a: int, b: int) -> bool:
            if a == b or b in adjacency[a]:
                return False
            adjacency[a].add(b)
            adjacency[b].add(a)
            return True

        # Spanning tree with preferential attachment towards hubs.
        for i in range(1, n):
            if i <= n_hubs:
                target = int(rng.integers(0, i))
            else:
                # 60% of attachments go to a hub, the rest uniformly at random.
                if rng.random() < 0.6:
                    target = int(rng.choice(sorted(hubs)))
                else:
                    target = int(rng.integers(0, i))
            add_edge(i, target)

        # Extra random edges up to the target mean degree.
        target_edges = int(round(spec.mean_degree * n / 2.0))
        current_edges = n - 1
        attempts = 0
        max_attempts = 20 * max(target_edges, 1)
        while current_edges < target_edges and attempts < max_attempts:
            attempts += 1
            a = int(rng.integers(0, n))
            if rng.random() < 0.4:
                b = int(rng.choice(sorted(hubs)))
            else:
                b = int(rng.integers(0, n))
            if add_edge(a, b):
                current_edges += 1
        return adjacency


def _fake_ip(index: int) -> str:
    """Deterministic, collision-free fake IPv4 address for node ``index``."""
    a = 10
    b = (index >> 16) & 0xFF
    c = (index >> 8) & 0xFF
    d = index & 0xFF
    return f"{a}.{b}.{c}.{d}"


def generate_trace(
    n_nodes: int,
    *,
    seed: int = 0,
    mean_degree: float = 2.0,
    hub_fraction: float = 0.05,
) -> List[TraceNode]:
    """Convenience wrapper: generate a synthetic trace with default knobs.

    Parameters mirror :class:`TraceSpec`; see its docstring.
    """
    spec = TraceSpec(
        n_nodes=n_nodes,
        seed=seed,
        mean_degree=mean_degree,
        hub_fraction=hub_fraction,
    )
    return SyntheticTraceGenerator(spec).generate()
