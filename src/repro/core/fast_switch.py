"""The Fast Source Switch Algorithm (Algorithm 1).

Per scheduling period, every peer that is aware of the source switch:

1. collects the candidate segments -- undelivered segments of the old
   source ``S1`` and of the new source's startup window -- that at least
   one neighbour advertises;
2. computes each candidate's request priority (urgency/rarity, Eq. 6--9)
   and sorts candidates by descending priority, *mixing* old- and
   new-source segments in a single order;
3. greedily assigns each candidate to the neighbour that can deliver it
   earliest within the period (Step 1 of Algorithm 1), yielding the ordered
   sets ``O1`` (schedulable old-source segments) and ``O2`` (schedulable
   new-source segments);
4. computes the optimal inbound split ``(r1, r2)`` from the closed-form
   model and applies the four-case allocation against the available
   outbound rates ``O1 = |O1|/tau`` and ``O2 = |O2|/tau``;
5. requests the first ``I1 * tau`` segments of ``O1`` and the first
   ``I2 * tau`` segments of ``O2`` (Step 2 of Algorithm 1).

The interleaving in step 2 is what distinguishes the fast algorithm from the
normal baseline: new-source segments with high urgency or rarity are pulled
*early*, which both pre-populates the mesh with new-source data (so it can
spread peer-to-peer instead of radiating from the new source at the end) and
exploits the residual playback time of the old source.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.allocation import allocate_rates
from repro.core.base import (
    LocalView,
    ScheduleDecision,
    SegmentRequest,
    Stream,
    SwitchAlgorithm,
)
from repro.core.model import optimal_split
from repro.core.priority import priority_for_view
from repro.core.scheduler import (
    AssignedSegment,
    CandidateSegment,
    greedy_supplier_assignment,
)

__all__ = ["FastSwitchAlgorithm"]


class FastSwitchAlgorithm(SwitchAlgorithm):
    """The paper's greedy fast source switch algorithm.

    The algorithm is work-conserving: inbound capacity left over after the
    four-case allocation (because one of the two schedulable sets is
    shorter than its allocation) is spent on the remaining schedulable
    segments in priority order.  This matches what any real client would do
    and never reduces throughput.
    """

    name = "fast"

    # ------------------------------------------------------------------ #
    def schedule(self, view: LocalView) -> ScheduleDecision:
        """Compute the period's segment requests (see module docstring)."""
        capacity = view.capacity_segments()
        if capacity <= 0:
            return ScheduleDecision(requests=())

        candidates = self._build_candidates(view)
        if not candidates:
            return ScheduleDecision(requests=())

        assignment = greedy_supplier_assignment(candidates, view.tau)
        old_set, new_set = _partition_by_stream(assignment.assigned, view)

        o1_rate = len(old_set) / view.tau
        o2_rate = len(new_set) / view.tau

        split = optimal_split(
            view.inbound_rate,
            q1=view.q1,
            q2=view.q2,
            q=view.startup_quota_old,
            p=view.play_rate,
        )
        allocation = allocate_rates(split, view.inbound_rate, o1_rate, o2_rate)

        take_old = min(len(old_set), int(round(allocation.i1 * view.tau)))
        take_new = min(len(new_set), int(round(allocation.i2 * view.tau)))
        # Never exceed the peer's inbound capacity in segments.
        while take_old + take_new > capacity:
            if take_new >= take_old and take_new > 0:
                take_new -= 1
            elif take_old > 0:
                take_old -= 1
            else:  # pragma: no cover - both zero cannot exceed capacity
                break

        chosen: List[AssignedSegment] = old_set[:take_old] + new_set[:take_new]
        chosen = self._fill_leftover_capacity(
            chosen, old_set, new_set, take_old, take_new, capacity
        )

        # Emit requests in descending priority order so the simulator's
        # supplier-side contention favours what the algorithm values most.
        chosen.sort(key=lambda item: (-item.priority, item.seg_id))
        requests = tuple(
            SegmentRequest(
                seg_id=item.seg_id,
                supplier_id=item.supplier_id,
                stream=view.stream_of(item.seg_id),
                expected_receive_time=item.expected_receive_time,
            )
            for item in chosen
        )
        return ScheduleDecision(
            requests=requests,
            i1=allocation.i1,
            i2=allocation.i2,
            r1=split.r1,
            r2=split.r2,
            o1=o1_rate,
            o2=o2_rate,
            case=allocation.case,
        )

    # ------------------------------------------------------------------ #
    def _build_candidates(self, view: LocalView) -> List[CandidateSegment]:
        """Priority-sorted candidates (needed segments with >= 1 supplier)."""
        candidates: List[CandidateSegment] = []
        supply = view.supply_bits
        for seg_id in view.needed():
            if not supply >> seg_id & 1:
                continue
            suppliers = view.suppliers_of(seg_id)
            priority = priority_for_view(
                seg_id, suppliers, view.playback_id, view.play_rate
            )
            candidates.append(
                CandidateSegment(seg_id=seg_id, priority=priority, suppliers=suppliers)
            )
        # Descending priority; ties broken towards earlier segments, whose
        # playback deadline is closer.
        candidates.sort(key=lambda c: (-c.priority, c.seg_id))
        return candidates

    def _fill_leftover_capacity(
        self,
        chosen: List[AssignedSegment],
        old_set: List[AssignedSegment],
        new_set: List[AssignedSegment],
        take_old: int,
        take_new: int,
        capacity: int,
    ) -> List[AssignedSegment]:
        """Spend unused inbound capacity on remaining schedulable segments."""
        leftover = capacity - len(chosen)
        if leftover <= 0:
            return chosen
        extras = old_set[take_old:] + new_set[take_new:]
        extras.sort(key=lambda item: (-item.priority, item.seg_id))
        return chosen + extras[:leftover]


def _partition_by_stream(
    assigned: List[AssignedSegment], view: LocalView
) -> Tuple[List[AssignedSegment], List[AssignedSegment]]:
    """Split the greedy assignment into the ordered sets ``O1`` and ``O2``."""
    old_set: List[AssignedSegment] = []
    new_set: List[AssignedSegment] = []
    for item in assigned:
        if view.stream_of(item.seg_id) is Stream.OLD:
            old_set.append(item)
        else:
            new_set.append(item)
    return old_set, new_set
