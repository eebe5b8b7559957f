"""Gossip membership management (neighbour lists under churn).

CoolStreaming-style systems (the class of systems the paper targets) rely
on a gossip membership protocol [Ganesh et al. 2003] to give every node a
small partial view of the overlay from which it picks ``M`` streaming
neighbours.  For the purposes of the switch-time evaluation the relevant
behaviours are:

* a joining node obtains ``M`` random alive neighbours,
* a leaving (or failed) node silently disappears; its former neighbours
  detect the loss at the next scheduling period and repair their neighbour
  set back to the minimum degree by picking new random partners,
* partner choices are random and uniform over alive nodes (the random
  partner selection is what gives gossip dissemination its resilience).

:class:`MembershipService` implements these behaviours directly against the
:class:`~repro.overlay.topology.Overlay`, which keeps the simulation faithful
to the paper while avoiding per-message simulation of the membership gossip
itself (whose traffic the paper does not count either).

A partner draw is array work, not a population scan: the alive ids are one
sorted array (each node's region next to it, looked up once per node).  The
weighted draw replicates ``Generator.choice`` without its per-call checks
of the weights, which cost several times the draw itself
(:func:`_choice_without_replacement`, fuzzed against NumPy in the tests).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.overlay.topology import NodeInfo, Overlay

__all__ = ["MembershipService"]

#: Regions of a node not looked up yet, and of one the lookup does not know.
_UNSEEN, _UNKNOWN = -2, -1


class MembershipService:
    """Maintains the overlay neighbour structure under join/leave churn.

    Parameters
    ----------
    overlay:
        The overlay to manage (mutated in place).
    min_degree:
        The target number of streaming neighbours ``M`` (paper: 5).
    rng:
        Random generator used for partner selection.
    protected:
        Node ids that must never be removed by churn (the sources).
    """

    def __init__(
        self,
        overlay: Overlay,
        min_degree: int,
        rng: np.random.Generator,
        *,
        protected: Iterable[int] = (),
    ) -> None:
        if min_degree < 1:
            raise ValueError(f"min_degree must be >= 1, got {min_degree}")
        self.overlay = overlay
        self.min_degree = int(min_degree)
        self._rng = rng
        self.protected = set(protected)
        #: row 0: the alive ids, ascending; row 1: each one's region
        self._members = np.array([overlay.node_ids, [_UNSEEN] * len(overlay)], dtype=np.int64)
        self._next_id = int(self._members[0, -1]) + 1 if len(overlay) else 0
        self._region_index_of: Optional[Callable[[int], Optional[int]]] = None
        self._locality_bias = 1.0
        #: cumulative counters, useful for tests and reports
        self.joins = 0
        self.leaves = 0
        self.repairs = 0

    # ------------------------------------------------------------------ #
    # locality-aware partner selection
    # ------------------------------------------------------------------ #
    def set_locality(
        self,
        region_index_of: Callable[[int], Optional[int]],
        bias: float,
    ) -> None:
        """Enable locality-aware partner selection.

        ``region_index_of`` maps a node id to its network-region index (or
        ``None`` when unknown) and ``bias`` is the weight multiplier for
        same-region candidates: with bias ``b``, a same-region candidate is
        ``b`` times as likely to be drawn as a remote one.  A region is
        looked up once, when its node is first a candidate (it must be
        assigned by then), and the drawing node's at every draw.  A ``bias`` of
        1.0 (or less) is a no-op: locality stays disabled and partner
        selection keeps the classic region-blind uniform draw, bit
        identical to a service that never saw this call.  (The weighted
        draw consumes the random stream differently from the uniform one,
        which is why enabling locality is gated on ``bias > 1`` rather
        than on passing weight 1.0 into the weighted path.)
        """
        if bias > 1.0:
            self._region_index_of = region_index_of
            self._locality_bias = float(bias)

    @property
    def locality_enabled(self) -> bool:
        """Whether partner selection is biased toward same-region nodes."""
        return self._region_index_of is not None

    # ------------------------------------------------------------------ #
    # membership changes
    # ------------------------------------------------------------------ #
    def allocate_node_id(self) -> int:
        """Return a fresh, never-used node id."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def join(self, info: Optional[NodeInfo] = None) -> int:
        """Add a new node with ``min_degree`` random alive neighbours.

        When fewer than ``min_degree`` other nodes are alive the joiner gets
        a partial neighbour set (everyone alive) -- see :meth:`repair`.

        Returns the id of the new node.
        """
        if info is None:
            info = NodeInfo(node_id=self.allocate_node_id())
        elif info.node_id >= self._next_id:
            self._next_id = info.node_id + 1
        self.overlay.add_node(info)
        at = int(self._members[0].searchsorted(info.node_id))
        self._members = np.insert(self._members, at, (info.node_id, _UNSEEN), axis=1)
        self._connect_to_random_partners(info.node_id, self.min_degree)
        self.joins += 1
        return info.node_id

    def leave(self, node_id: int) -> List[int]:
        """Remove ``node_id`` from the overlay.

        Returns the ids of its former neighbours (the peers that will need
        repair).  Protected nodes raise ``ValueError``.
        """
        if node_id in self.protected:
            raise ValueError(f"node {node_id} is protected and cannot leave")
        former = self.overlay.neighbours(node_id)
        self.overlay.remove_node(node_id)
        self._members = np.delete(self._members, self._members[0].searchsorted(node_id), axis=1)
        self.leaves += 1
        return former

    @property
    def effective_min_degree(self) -> int:
        """The degree target actually reachable with the current population.

        When fewer than ``min_degree + 1`` nodes are alive the full target is
        unattainable (a node cannot have more neighbours than there are other
        nodes), so membership maintenance degrades gracefully to the complete
        graph on the survivors instead of chasing -- and repeatedly re-drawing
        partners for -- an impossible deficit.
        """
        return min(self.min_degree, max(0, len(self.overlay) - 1))

    def repair(self, node_ids: Optional[Sequence[int]] = None) -> int:
        """Restore the minimum degree of the given nodes (default: all).

        Returns the number of edges added.  With fewer than ``min_degree + 1``
        alive nodes the repair targets :attr:`effective_min_degree` instead --
        nodes keep a partial neighbour set and a saturated (complete) overlay
        is a no-op rather than a perpetual retry.
        """
        if node_ids is None:
            node_ids = self.overlay.node_ids
        target = self.effective_min_degree
        added = 0
        for node_id in node_ids:
            if node_id not in self.overlay:
                continue
            deficit = target - self.overlay.degree(node_id)
            if deficit > 0:
                added += self._connect_to_random_partners(node_id, deficit)
        if added:
            self.repairs += 1
        return added

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _connect_to_random_partners(self, node_id: int, count: int) -> int:
        """Connect ``node_id`` to up to ``count`` random non-neighbours (in
        id order: the draws index into them)."""
        alive, regions = self._members
        keep = np.ones(alive.size, dtype=bool)
        keep[alive.searchsorted([node_id, *self.overlay.neighbours(node_id)])] = False
        candidates = alive[keep]
        if not candidates.size:
            return 0
        count = min(count, candidates.size)
        region_index_of = self._region_index_of
        if region_index_of is not None:
            # Locality-aware draw: same-region candidates carry ``bias``
            # weight, everyone else 1.0 (unknown regions count as remote).
            for at in np.flatnonzero(keep & (regions == _UNSEEN)).tolist():
                region = region_index_of(int(alive[at]))
                regions[at] = _UNKNOWN if region is None else region
            own = region_index_of(node_id)  # None matches nobody: no candidate is unseen now
            same = regions[keep] == (_UNSEEN if own is None else own)
            weights = np.where(same, self._locality_bias, 1.0)
            chosen = _choice_without_replacement(self._rng, weights / weights.sum(), count)
        else:
            chosen = self._rng.choice(candidates.size, size=count, replace=False)
        added = 0
        for partner in candidates[chosen].tolist():
            if self.overlay.add_edge(node_id, partner):
                added += 1
        return added

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MembershipService(nodes={len(self.overlay)}, M={self.min_degree}, "
            f"joins={self.joins}, leaves={self.leaves})"
        )


def _choice_without_replacement(rng: np.random.Generator, p: np.ndarray, size: int) -> List[int]:
    """What ``rng.choice`` draws for ``size`` picks without replacement from
    weights ``p``, by NumPy's own algorithm: invert the CDF of the mass not
    picked yet at fresh uniforms, keep each new index's first occurrence,
    repeat.  ``p`` is consumed."""
    picked: List[int] = []
    while len(picked) < size:
        uniforms = rng.random(size - len(picked))
        if picked:
            p[picked] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        picked.extend(dict.fromkeys(cdf.searchsorted(uniforms, side="right").tolist()))
    return picked
