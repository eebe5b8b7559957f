"""Greedy supplier assignment (Step 1 of Algorithm 1).

Given the candidate segments sorted by descending priority, the scheduler
assigns each segment to the neighbour that can deliver it *earliest* within
the scheduling period.  Each neighbour ``j`` has a sending rate ``R(j)``
(so one segment occupies it for ``1/R(j)`` seconds) and an accumulated
queueing time ``tau(j)``; a segment can only be assigned to ``j`` if
``1/R(j) + tau(j) < tau`` (it would finish within the period).

Choosing suppliers to minimise the number of segments that miss their
deadline or get evicted is NP-hard (it contains parallel machine
scheduling), so the paper -- and this implementation -- uses the greedy
earliest-completion heuristic: process segments in priority order, pick for
each the supplier with the smallest ``tau(j) + 1/R(j)``, and charge that
supplier's queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import NeighbourView
from repro.obs.telemetry import get_telemetry

__all__ = ["CandidateSegment", "AssignedSegment", "GreedyAssignment", "greedy_supplier_assignment"]


@dataclass(frozen=True)
class CandidateSegment:
    """One schedulable segment, its priority and its potential suppliers."""

    seg_id: int
    priority: float
    suppliers: Tuple[NeighbourView, ...]


@dataclass(frozen=True)
class AssignedSegment:
    """A segment together with its chosen supplier and expected receive time."""

    seg_id: int
    priority: float
    supplier_id: int
    expected_receive_time: float


@dataclass
class GreedyAssignment:
    """Result of the greedy supplier assignment.

    Attributes
    ----------
    assigned:
        Segments that obtained a supplier, in the order they were processed
        (i.e. descending priority).
    unassigned:
        Segment ids that could not be scheduled this period (all suppliers
        saturated or too slow).
    supplier_queue:
        Final queueing time ``tau(j)`` per supplier id (seconds of sending
        work assigned to that supplier this period).
    """

    assigned: List[AssignedSegment] = field(default_factory=list)
    unassigned: List[int] = field(default_factory=list)
    supplier_queue: Dict[int, float] = field(default_factory=dict)

    def assigned_ids(self) -> frozenset[int]:
        """Ids of all segments that obtained a supplier."""
        return frozenset(item.seg_id for item in self.assigned)

    def load_of(self, supplier_id: int) -> float:
        """Sending time charged to ``supplier_id`` (0.0 if unused)."""
        return self.supplier_queue.get(supplier_id, 0.0)


def greedy_supplier_assignment(
    candidates: Sequence[CandidateSegment],
    period: float,
    *,
    initial_queue: Optional[Dict[int, float]] = None,
) -> GreedyAssignment:
    """Assign each candidate to the supplier that can send it earliest.

    Parameters
    ----------
    candidates:
        Candidate segments **already sorted by descending priority** (the
        caller owns the ordering policy; ties are processed in the order
        given).
    period:
        The data scheduling period ``tau`` in seconds.  A segment is only
        assigned if its expected completion time is strictly less than
        ``tau`` (Algorithm 1, line 13).
    initial_queue:
        Optional pre-existing per-supplier queueing times ``tau(j)``
        (seconds).  Used when a caller schedules in multiple passes over the
        same neighbourhood -- e.g. the normal switch algorithm schedules all
        old-source segments first and then new-source segments against the
        *remaining* supplier capacity.

    Returns
    -------
    GreedyAssignment
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    result = GreedyAssignment()
    queue: Dict[int, float] = dict(initial_queue) if initial_queue else {}

    for candidate in candidates:
        best_time = float("inf")
        best_supplier: Optional[int] = None
        for supplier in candidate.suppliers:
            if supplier.send_rate <= 0:
                continue
            transfer = 1.0 / supplier.send_rate
            completion = transfer + queue.get(supplier.node_id, 0.0)
            if completion < best_time and completion < period:
                best_time = completion
                best_supplier = supplier.node_id
        if best_supplier is None:
            result.unassigned.append(candidate.seg_id)
            continue
        queue[best_supplier] = best_time
        result.assigned.append(
            AssignedSegment(
                seg_id=candidate.seg_id,
                priority=candidate.priority,
                supplier_id=best_supplier,
                expected_receive_time=best_time,
            )
        )

    result.supplier_queue = queue
    obs = get_telemetry()
    if obs.enabled:
        obs.count("scheduler.assigned", len(result.assigned))
        obs.count("scheduler.unassigned", len(result.unassigned))
    return result
