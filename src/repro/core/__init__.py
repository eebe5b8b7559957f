"""The paper's core contribution: fast source switching.

This subpackage is a self-contained, simulator-independent implementation of
Sections 3 and 4 of the paper:

* :mod:`repro.core.model` -- the closed-form optimisation model of the
  switch process (Eq. 1--5): split a constant inbound rate ``I`` into
  ``I1`` (old source) and ``I2`` (new source) so the new source's startup
  delay ``T2`` is minimised subject to finishing the old source first.
* :mod:`repro.core.priority` -- per-segment request priorities combining
  *urgency* (deadline pressure, Eq. 7) and *rarity* (risk of eviction from
  all suppliers' FIFO buffers, Eq. 8), with
  ``priority = max(urgency, rarity)`` (Eq. 9).
* :mod:`repro.core.scheduler` -- the greedy supplier-assignment step of
  Algorithm 1 (earliest-completion supplier within the scheduling period).
* :mod:`repro.core.allocation` -- the four-case allocation of ``I1``/``I2``
  under neighbour outbound-capacity constraints (Section 4).
* :mod:`repro.core.fast_switch` -- the Fast Source Switch Algorithm
  (Algorithm 1) as a :class:`~repro.core.base.SwitchAlgorithm` strategy.
* :mod:`repro.core.normal_switch` -- the baseline *normal switch algorithm*
  (old source strictly first; leftover inbound rate goes to the new source).

All algorithms operate on a :class:`~repro.core.base.LocalView`, a snapshot
of everything one peer can see locally (its own playback state and its
neighbours' advertised buffers/rates), and return a
:class:`~repro.core.base.ScheduleDecision` listing the segment requests for
the next scheduling period.  The streaming simulator in
:mod:`repro.streaming` builds the views and executes the decisions, but the
algorithms themselves are pure functions of their inputs and are unit- and
property-tested in isolation.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "Stream": "repro.core.base",
    "NeighbourView": "repro.core.base",
    "LocalView": "repro.core.base",
    "SegmentRequest": "repro.core.base",
    "ScheduleDecision": "repro.core.base",
    "SwitchAlgorithm": "repro.core.base",
    "OptimalSplit": "repro.core.model",
    "optimal_split": "repro.core.model",
    "switch_time_lower_bound": "repro.core.model",
    "AllocationCase": "repro.core.allocation",
    "allocate_rates": "repro.core.allocation",
    "urgency": "repro.core.priority",
    "rarity": "repro.core.priority",
    "request_priority": "repro.core.priority",
    "GreedyAssignment": "repro.core.scheduler",
    "greedy_supplier_assignment": "repro.core.scheduler",
    "FastSwitchAlgorithm": "repro.core.fast_switch",
    "NormalSwitchAlgorithm": "repro.core.normal_switch",
})
