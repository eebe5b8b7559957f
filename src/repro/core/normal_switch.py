"""The baseline *normal switch algorithm* (Section 5.1).

Quoting the paper: *"for a node n, when its neighbours can supply data
segments of both S1 and S2, node n would retrieve data segments of S1 in
priority.  If n still has available inbound rate after retrieving data
segments of S1, it would allocate the remaining inbound rate to retrieve
data segments of S2."*

Concretely, per scheduling period the baseline:

1. schedules **all** undelivered old-source segments first, in playback
   order (earliest deadline first), using the same greedy
   earliest-completion supplier assignment as the fast algorithm so the
   comparison isolates the *interleaving policy*, not the supplier choice;
2. spends whatever inbound capacity remains on new-source startup segments,
   in segment-id order, against the suppliers' *remaining* sending budgets.

This is exactly the ordering shown in the paper's Figure 2: the node fills
its seven request slots with the five old-source segments first and only
then with the first two new-source segments.

How much inbound rate "remains" for the new source is read as a
reservation: the old source is granted ``min(I, Q1)`` of the inbound rate
whether or not that much of it can actually be scheduled this period
(neighbours may not hold the needed segments, or may be saturated).  While
the node's undelivered backlog ``Q1`` exceeds its inbound rate it therefore
requests *no* new-source segments at all.  This matches the behaviour
visible in the paper's evaluation, where the baseline makes essentially no
new-source progress until the old stream is finished (e.g. the last node
finishing S1 at t=15 but only becoming ready for S2 at t=24).
"""

from __future__ import annotations

from typing import List

from repro.core.base import (
    LocalView,
    ScheduleDecision,
    SegmentRequest,
    Stream,
    SwitchAlgorithm,
)
from repro.core.scheduler import CandidateSegment, greedy_supplier_assignment

__all__ = ["NormalSwitchAlgorithm"]


class NormalSwitchAlgorithm(SwitchAlgorithm):
    """Old source strictly first; leftovers go to the new source."""

    name = "normal"

    def schedule(self, view: LocalView) -> ScheduleDecision:
        """Compute the period's segment requests (see module docstring)."""
        capacity = view.capacity_segments()
        if capacity <= 0:
            return ScheduleDecision(requests=())

        # --- pass 1: the old source, in playback (deadline) order -------- #
        old_candidates = self._sequential_candidates(view, view.old_needed)
        old_assignment = greedy_supplier_assignment(old_candidates, view.tau)
        old_chosen = old_assignment.assigned[:capacity]

        # --- pass 2: the new source, with the remaining capacity --------- #
        remaining = capacity - min(capacity, len(view.old_needed))
        new_chosen = []
        if remaining > 0 and view.new_needed:
            new_candidates = self._sequential_candidates(view, view.new_needed)
            new_assignment = greedy_supplier_assignment(
                new_candidates,
                view.tau,
                initial_queue=old_assignment.supplier_queue,
            )
            new_chosen = new_assignment.assigned[:remaining]

        requests: List[SegmentRequest] = [
            SegmentRequest(
                seg_id=item.seg_id,
                supplier_id=item.supplier_id,
                stream=Stream.OLD,
                expected_receive_time=item.expected_receive_time,
            )
            for item in old_chosen
        ]
        requests.extend(
            SegmentRequest(
                seg_id=item.seg_id,
                supplier_id=item.supplier_id,
                stream=Stream.NEW,
                expected_receive_time=item.expected_receive_time,
            )
            for item in new_chosen
        )

        return ScheduleDecision(
            requests=tuple(requests),
            i1=len(old_chosen) / view.tau,
            i2=len(new_chosen) / view.tau,
            r1=None,
            r2=None,
            o1=len(old_assignment.assigned) / view.tau,
            o2=len(new_chosen) / view.tau if new_chosen else 0.0,
            case=None,
        )

    @staticmethod
    def _sequential_candidates(
        view: LocalView, needed: frozenset[int]
    ) -> List[CandidateSegment]:
        """Candidates in ascending segment-id order (playback order).

        The priority value only encodes the ordering (earlier segments get
        larger priorities); the baseline does not use urgency or rarity.
        """
        candidates: List[CandidateSegment] = []
        supply = view.supply_bits
        for rank, seg_id in enumerate(sorted(needed)):
            if not supply >> seg_id & 1:
                continue
            candidates.append(
                CandidateSegment(
                    seg_id=seg_id,
                    priority=1.0 / (1.0 + rank),
                    suppliers=view.suppliers_of(seg_id),
                )
            )
        return candidates
