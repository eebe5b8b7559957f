"""Array-native execution engine for the per-period inner loop.

The oracle engine (:class:`~repro.streaming.session.SwitchSession`) spends
most of its budget in the *decide phase*.  Its buffer maps are bitmaps (one
Python ``int`` per pull, see :mod:`repro.streaming.buffermap`), so pulling
and digesting them is cheap; what remains is per-candidate Python: one
``priority_for_view`` call, one supplier tuple and one greedy step for every
needed segment somebody advertises.  This module replaces exactly that
phase with NumPy struct-of-arrays passes:

* every node's FIFO buffer is mirrored into one shared ``peers x segments``
  boolean *presence* matrix plus an insertion-index matrix (for the FIFO
  positions the rarity term consumes), kept in sync by
  :class:`MirroredBuffer` (mutations are queued and flushed in one fancy
  assignment per period);
* highest-known-id updates, undelivered-segment sets and candidate/supplier
  matrices come from boolean slices of the presence matrix instead of
  per-neighbour dict churn;
* urgency, rarity and the priority sort are evaluated as whole-array
  expressions whose floating-point operation order matches the scalar
  implementation exactly (sequential per-supplier rarity products, the
  same ``(-priority, seg_id)`` total order); peers with only a handful of
  candidates take an allocation-free scalar shortcut instead.

Everything else -- RNG streams, churn, the outbound ledger, request
execution, playback, metrics -- runs the untouched oracle code, so a
:class:`VectorSwitchSession` is a drop-in subclass that overrides only
``_decide_phase``.  The contract is **bit-identity**: for every supported
algorithm configuration the vector engine produces byte-for-byte the same
store documents as the oracle (enforced by ``tests/test_vector_equivalence.py``).
Peers whose algorithm instance is not a plain
:class:`~repro.core.fast_switch.FastSwitchAlgorithm` or
:class:`~repro.core.normal_switch.NormalSwitchAlgorithm` transparently fall
back to the scalar decide path, preserving correctness for custom
algorithm factories.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import allocate_rates
from repro.core.base import ScheduleDecision, SegmentRequest, Stream
from repro.core.fast_switch import FastSwitchAlgorithm
from repro.core.model import optimal_split
from repro.core.normal_switch import NormalSwitchAlgorithm
from repro.core.priority import URGENCY_CAP, PriorityPolicy
from repro.net.fabric import IdealFabric
from repro.obs.probes import STAGE_ASSIGNED, STAGE_REQUESTED, STAGE_SCHEDULED
from repro.obs.telemetry import get_telemetry
from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import UNBOUNDED_CAPACITY, buffer_map_bits
from repro.streaming.peer import PeerNode
from repro.streaming.session import SwitchSession

__all__ = [
    "SegmentArrays",
    "MirroredBuffer",
    "VectorSwitchSession",
    "vectorized_priorities",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_INF = float("inf")


class SegmentArrays:
    """The shared struct-of-arrays state: one row per node, one column per id.

    Attributes
    ----------
    present:
        ``bool`` matrix; ``present[row, seg]`` is buffer membership.
    insert_index:
        ``int64`` matrix of FIFO insertion counters (valid where present);
        a segment's position from the buffer tail is
        ``counter - insert_index[row, seg]`` (no out-of-order discards, the
        only removal path a session exercises).
    pending:
        Mutations queued by :class:`MirroredBuffer` since the last
        :meth:`flush`; ``(row, seg) -> insertion counter`` (or ``-1`` for a
        removal).  The dict keeps only the *final* state per cell, so one
        fancy assignment per period replaces thousands of scalar writes.
    """

    def __init__(self, n_rows: int, n_segments: int) -> None:
        self.present = np.zeros((max(1, n_rows), max(1, n_segments)), dtype=bool)
        self.insert_index = np.zeros_like(self.present, dtype=np.int64)
        self.pending: Dict[Tuple[int, int], int] = {}

    @property
    def n_segments(self) -> int:
        """Current width of the segment axis."""
        return self.present.shape[1]

    def flush(self) -> None:
        """Apply all queued buffer mutations to the matrices."""
        pending = self.pending
        if not pending:
            return
        self.pending = {}
        n = len(pending)
        rows = np.empty(n, dtype=np.intp)
        cols = np.empty(n, dtype=np.intp)
        values = np.empty(n, dtype=np.int64)
        max_seg = 0
        i = 0
        for (row, seg), value in pending.items():
            rows[i] = row
            cols[i] = seg
            values[i] = value
            if seg > max_seg:
                max_seg = seg
            i += 1
        self.ensure_segments(max_seg + 1)
        inserted = values >= 0
        self.present[rows, cols] = inserted
        self.insert_index[rows, cols] = np.where(inserted, values, 0)

    def ensure_segments(self, n: int) -> None:
        """Grow the segment axis (geometrically) to cover ids ``< n``."""
        current = self.present.shape[1]
        if n <= current:
            return
        new = max(n, current * 2)
        self.present = _grown(self.present, (self.present.shape[0], new))
        self.insert_index = _grown(self.insert_index, (self.insert_index.shape[0], new))

    def ensure_rows(self, n: int) -> None:
        """Grow the node axis (geometrically) to cover rows ``< n``."""
        current = self.present.shape[0]
        if n <= current:
            return
        new = max(n, current * 2)
        self.present = _grown(self.present, (new, self.present.shape[1]))
        self.insert_index = _grown(self.insert_index, (new, self.insert_index.shape[1]))


def _grown(array: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape, dtype=array.dtype)
    out[: array.shape[0], : array.shape[1]] = array
    return out


class MirroredBuffer(SegmentBuffer):
    """A :class:`SegmentBuffer` that mirrors its contents into a matrix row.

    Behaviour is identical to the parent (the parent's own structures stay
    authoritative and are always current); the mirror only queues array
    bookkeeping on the mutation paths, flushed lazily before the next
    decide phase reads the matrices.
    """

    def __init__(self, capacity: Optional[int], arrays: SegmentArrays, row: int) -> None:
        super().__init__(capacity=capacity)
        self.arrays = arrays
        self.row = int(row)

    @classmethod
    def adopt(
        cls, buffer: SegmentBuffer, arrays: SegmentArrays, row: int
    ) -> "MirroredBuffer":
        """Wrap an existing buffer, taking over its state and filling the row."""
        mirrored = cls(buffer.capacity, arrays, row)
        mirrored._order = buffer._order
        mirrored._insert_index = buffer._insert_index
        mirrored._bits = buffer._bits
        mirrored._counter = buffer._counter
        mirrored._discards = buffer._discards
        mirrored.evicted_total = buffer.evicted_total
        if mirrored._insert_index:
            ids = np.fromiter(
                mirrored._insert_index.keys(), dtype=np.int64, count=len(mirrored._insert_index)
            )
            values = np.fromiter(
                mirrored._insert_index.values(), dtype=np.int64, count=len(mirrored._insert_index)
            )
            arrays.ensure_segments(int(ids.max()) + 1)
            arrays.present[row, ids] = True
            arrays.insert_index[row, ids] = values
        return mirrored

    def insert(self, seg_id: int) -> Optional[int]:
        if seg_id in self._insert_index:
            return None
        evicted = super().insert(seg_id)
        pending = self.arrays.pending
        pending[(self.row, seg_id)] = self._counter - 1
        if evicted is not None:
            pending[(self.row, evicted)] = -1
        return evicted

    def discard(self, seg_id: int) -> bool:
        removed = super().discard(seg_id)
        if removed:
            self.arrays.pending[(self.row, seg_id)] = -1
        return removed


class _Survivors:
    """Per-peer neighbourhood structure for one decide pass.

    Under the ideal fabric (no per-message draws, nothing ever dropped)
    these are cached between periods and invalidated whenever session
    membership changes; under lossy fabrics they are rebuilt every period
    so the control-plane RNG draws happen in exactly the oracle's order.
    """

    __slots__ = (
        "ids", "id_set", "rows", "rows_col", "rates", "rates_col", "transfers",
        "caps", "caps_col", "buffers", "wire_bits",
    )

    def __init__(
        self,
        ids: List[int],
        rates: List[float],
        buffers: List[MirroredBuffer],
        wire_bits: int,
    ) -> None:
        self.ids = ids
        self.id_set = frozenset(ids)
        self.rows = np.array([b.row for b in buffers], dtype=np.intp)
        self.rows_col = self.rows[:, None]
        self.rates = rates
        self.rates_col = np.array(rates, dtype=np.float64)[:, None]
        self.transfers = [1.0 / rate if rate > 0 else _INF for rate in rates]
        self.caps = [
            b.capacity if b.capacity is not None else UNBOUNDED_CAPACITY for b in buffers
        ]
        self.caps_col = np.array(self.caps, dtype=np.int64)[:, None]
        self.buffers = buffers
        self.wire_bits = wire_bits


class VectorSwitchSession(SwitchSession):
    """:class:`SwitchSession` with the array-native decide phase.

    Constructed automatically by ``SwitchSession(config)`` whenever
    ``config.engine == "vector"``; accepts exactly the same arguments.
    After the (scalar) setup completes, every node's buffer is swapped for
    a :class:`MirroredBuffer` bound to a row of the shared
    :class:`SegmentArrays`, and ``_decide_phase`` is overridden with the
    vector implementation.  All other phases -- churn, generation, request
    execution, deliveries, playback, metrics -- run the oracle's code
    unchanged, and RNG consumption is draw-for-draw identical.
    """

    def __init__(self, config, **kwargs) -> None:
        self._arrays: Optional[SegmentArrays] = None
        self._next_row = 0
        self._survivor_cache: Dict[int, _Survivors] = {}
        self._cached_alive: Optional[set] = None
        super().__init__(config, **kwargs)
        self._vectorize()

    # ------------------------------------------------------------------ #
    # array construction
    # ------------------------------------------------------------------ #
    def _vectorize(self) -> None:
        cfg = self.config
        plan = self.switch_plan
        # Size the segment axis for everything the run can generate or
        # advertise interest in; MirroredBuffer still grows on demand.
        horizon_ids = plan.id_begin + int(cfg.play_rate * (cfg.max_time + 2.0 * cfg.tau))
        startup_ids = plan.id_begin + cfg.startup_quota_new + cfg.lookahead // 4
        n_segments = max(horizon_ids, startup_ids, cfg.old_stream_segments) + 64
        self._arrays = SegmentArrays(len(self.peers) + len(self.sources) + 8, n_segments)
        self._peer_wire_bits = buffer_map_bits(cfg.buffer_capacity)
        self._source_wire_bits = buffer_map_bits(600)
        self._capacity_cache: Dict[int, int] = {}
        self._ideal_fabric = type(self.fabric) is IdealFabric
        self._rank_recip = 1.0 / (1.0 + np.arange(1024, dtype=np.float64))
        self._bit_weights = np.left_shift(
            np.ones(64, dtype=np.uint64), np.arange(64, dtype=np.uint64)
        )
        for node_id in sorted(self.sources):
            self._mirror_node(self.sources[node_id])
        for node_id in sorted(self.peers):
            self._mirror_node(self.peers[node_id])

    def _mirror_node(self, node) -> None:
        row = self._next_row
        self._next_row += 1
        self._arrays.ensure_rows(self._next_row)
        node.buffer = MirroredBuffer.adopt(node.buffer, self._arrays, row)

    def _create_joiner(self, now: float, rng: np.random.Generator) -> None:
        before = set(self.peers)
        super()._create_joiner(now, rng)
        for node_id in self.peers.keys() - before:
            self._mirror_node(self.peers[node_id])

    # ------------------------------------------------------------------ #
    # the vector decide phase
    # ------------------------------------------------------------------ #
    def _decide_phase(self, order: Sequence[int], now: float) -> Dict[int, ScheduleDecision]:
        self._arrays.flush()
        if self._ideal_fabric:
            alive = set(self.peers)
            alive.update(self.sources)
            if alive != self._cached_alive:
                self._survivor_cache.clear()
                self._cached_alive = alive
        # Announcers are fixed for the whole phase: deciding never delivers
        # data, so ``has_new_data`` cannot flip mid-loop.
        announcers = {
            node_id
            for node_id, source in self.sources.items()
            if source.switch_plan is not None
        }
        announcers.update(
            node_id
            for node_id, peer in self.peers.items()
            if peer.switch_plan is not None and peer.has_new_data
        )
        decisions: Dict[int, ScheduleDecision] = {}
        vectorised = fallbacks = 0
        obs = get_telemetry()
        probes = obs.probes
        probing = probes.enabled
        # Decide-phase lifecycle rows are accumulated in plain lists and
        # batch-appended once per period, keeping the array path array-native;
        # the rows are built from the same bit-identical SegmentRequest data
        # the scalar engine emits from, so both streams match exactly.
        probe_rows: List[Tuple[float, int, int, int, int, int, float]] = []
        period = self.rounds_run
        fallback_rates: Dict[int, float] = {}
        old_err = np.seterr(divide="ignore")
        try:
            for node_id in order:
                peer = self.peers[node_id]
                algorithm_type = type(peer.algorithm)
                if algorithm_type is FastSwitchAlgorithm:
                    kind = "fast"
                elif algorithm_type is NormalSwitchAlgorithm:
                    kind = "normal"
                else:
                    # Unsupported algorithm: scalar path, identical draws.
                    fallbacks += 1
                    snapshots = self._pull_buffer_maps(peer, fallback_rates, obs)
                    kind = ""
                    decision = peer.decide(snapshots, now)
                if kind:
                    vectorised += 1
                    decision = self._vector_decide(peer, kind, now, announcers)
                decisions[node_id] = decision
                if probing:
                    for request in decision.requests:
                        seg_id = request.seg_id
                        supplier_id = request.supplier_id
                        probe_rows.append(
                            (now, period, node_id, seg_id, STAGE_REQUESTED, -1, 0.0)
                        )
                        probe_rows.append(
                            (now, period, node_id, seg_id, STAGE_ASSIGNED,
                             supplier_id, 0.0)
                        )
                        probe_rows.append(
                            (now, period, node_id, seg_id, STAGE_SCHEDULED,
                             supplier_id, request.expected_receive_time)
                        )
        finally:
            np.seterr(**old_err)
        if probe_rows:
            probes.lifecycle.extend(probe_rows)
        if obs.enabled:
            obs.counter("engine.dispatch.vector").add(vectorised)
            obs.counter("engine.dispatch.scalar_fallback").add(fallbacks)
        return decisions

    def _survivors_of(self, peer: PeerNode) -> _Survivors:
        if self._ideal_fabric:
            entry = self._survivor_cache.get(peer.node_id)
            if entry is None:
                entry = self._build_survivors(peer.node_id, draw=False)
                self._survivor_cache[peer.node_id] = entry
            return entry
        return self._build_survivors(peer.node_id, draw=True)

    def _build_survivors(self, node_id: int, *, draw: bool) -> _Survivors:
        ids: List[int] = []
        rates: List[float] = []
        buffers: List[MirroredBuffer] = []
        wire_bits = 0
        sources = self.sources
        fabric = self.fabric
        for neighbour_id in self.overlay.neighbours(node_id):
            node = self._node(neighbour_id)
            if node is None:
                continue
            if draw and fabric.control_transfer(neighbour_id, node_id) is None:
                continue
            ids.append(neighbour_id)
            rates.append(self._estimate_send_rate(neighbour_id))
            buffers.append(node.buffer)
            wire_bits += (
                self._source_wire_bits if neighbour_id in sources else self._peer_wire_bits
            )
        return _Survivors(ids, rates, buffers, wire_bits)

    def _vector_decide(
        self, peer: PeerNode, kind: str, now: float, announcers: set
    ) -> ScheduleDecision:
        arrays = self._arrays
        windows = peer.interest_windows()

        survivors = self._survivors_of(peer)
        if survivors.wire_bits:
            self.overhead.add_control(survivors.wire_bits)

        # -- switch adoption (before horizon classification, as the oracle) -- #
        if peer.switch_plan is None and not announcers.isdisjoint(survivors.id_set):
            peer._adopt_switch((self.switch_plan.id_end, self.switch_plan.id_begin), now)

        plan = peer.switch_plan
        id_end = plan.id_end if plan is not None else None
        id_begin = plan.id_begin if plan is not None else None

        # -- highest-known-id updates from the windowed availability ------- #
        # The highest-known markers only ever grow, so each scan can start
        # past the current marker; once the old marker reaches ``id_end``
        # (its cap) the old-range scan is skipped outright.
        present = arrays.present
        rows = survivors.rows
        hk_old_capped = id_end is not None and peer.highest_known_old == id_end
        for lo, hi in windows:
            if hi < lo:
                continue
            if id_begin is None:
                top = _scan_top(present, rows, lo, hi, peer.highest_known_old)
                if top is not None:
                    peer.highest_known_old = top
            else:
                if not hk_old_capped:
                    old_hi = min(hi, id_end)
                    if old_hi >= lo:
                        top = _scan_top(
                            present, rows, lo, old_hi, peer.highest_known_old
                        )
                        if top is not None:
                            peer.highest_known_old = top
                            hk_old_capped = top == id_end
                new_lo = max(lo, id_begin)
                if hi >= new_lo:
                    top = _scan_top(
                        present, rows, new_lo, hi, peer.highest_known_new
                    )
                    if top is not None:
                        peer.highest_known_new = top

        # -- undelivered-segment sets (authoritative: collectors read them) - #
        own = present[peer.buffer.row]
        playback_old = peer.playback_old
        if playback_old.finished or peer.highest_known_old is None:
            old_ids = _EMPTY_IDS
        else:
            old_ids = _missing_ids(own, playback_old.position, peer.highest_known_old)
        old_list = old_ids.tolist()
        peer.wanted_old = set(old_list)

        playback_new = peer.playback_new
        if plan is None:
            new_ids = _EMPTY_IDS
        elif playback_new is not None and playback_new.started:
            if peer.highest_known_new is None:
                new_ids = _EMPTY_IDS
            else:
                lo = playback_new.position
                hi = min(peer.highest_known_new, lo + peer.lookahead)
                new_ids = _missing_ids(own, lo, hi)
        else:
            startup = plan.startup_ids()
            arrays.ensure_segments(startup.stop)
            own = arrays.present[peer.buffer.row]
            new_ids = _missing_ids(own, startup.start, startup.stop - 1)
        new_list = new_ids.tolist()
        peer.wanted_new = set(new_list)

        # -- the scheduling decision --------------------------------------- #
        capacity = self._capacity_of(peer)
        n_candidates = len(old_list) + len(new_list)
        if capacity <= 0 or n_candidates == 0 or not survivors.ids:
            # No capacity, nothing wanted, or no live neighbours: every
            # algorithm branch collapses to an all-defaults empty decision.
            decision = ScheduleDecision(requests=())
        elif kind == "fast":
            decision = self._fast_decide(
                peer, capacity, survivors, windows, old_ids, new_ids
            )
        else:
            decision = self._normal_decide(
                peer, capacity, survivors, windows, old_ids, new_ids
            )
        peer.requests_issued += len(decision.requests)
        return decision

    def _capacity_of(self, peer: PeerNode) -> int:
        capacity = self._capacity_cache.get(peer.node_id)
        if capacity is None:
            capacity = max(0, int(round(peer.bandwidth.inbound * peer.tau)))
            self._capacity_cache[peer.node_id] = capacity
        return capacity

    # ------------------------------------------------------------------ #
    # fast switch algorithm (Algorithm 1), array form
    # ------------------------------------------------------------------ #
    def _fast_decide(
        self,
        peer: PeerNode,
        capacity: int,
        survivors: _Survivors,
        windows: Sequence[Tuple[int, int]],
        old_ids: np.ndarray,
        new_ids: np.ndarray,
    ) -> ScheduleDecision:
        n_old = old_ids.size
        if n_old == 0:
            candidates = new_ids
        elif new_ids.size == 0:
            candidates = old_ids
        else:
            candidates = np.concatenate((old_ids, new_ids))
        # Snapshots advertise buffer ∩ interest windows, and the windows were
        # computed *before* any mid-round switch adoption -- a just-adopted
        # peer cannot see suppliers for ids outside its pre-adoption windows.
        supply = self._arrays.present[survivors.rows_col, candidates]
        supply &= _window_mask(candidates, windows)
        if not supply.any():
            return ScheduleDecision(requests=())

        # Supplier-less candidates are NOT filtered out: their column mask
        # is zero so the greedy pass skips them in O(1), and the priorities
        # computed for them (urgency caps out on an empty supplier set)
        # never surface because only assigned items are emitted.
        playback_id = peer._current_playback_id()
        policy = peer.algorithm.priority_policy
        if policy is PriorityPolicy.PAPER:
            counters = np.fromiter(
                (b._counter for b in survivors.buffers),
                np.int64,
                count=len(survivors.buffers),
            )[:, None]
            positions = counters - self._arrays.insert_index[
                survivors.rows_col, candidates
            ]
        else:
            positions = None
        priorities = vectorized_priorities(
            candidates, supply, survivors.rates_col, positions, survivors.caps_col,
            playback_id, peer.play_rate, policy,
        )
        # Candidates ascend globally (old ids all precede new ids), so a
        # stable sort on descending priority breaks ties towards earlier
        # segments -- the same total order as sort(key=(-priority, seg_id)).
        order = np.argsort(-priorities, kind="stable").tolist()
        masks = self._supplier_masks(supply)
        # One tolist per array instead of two numpy-scalar conversions per
        # assignment; downstream consumers (requests, store documents) then
        # only ever see native Python ints/floats.
        assigned_old, assigned_new, _ = _greedy_masks(
            order, candidates.tolist(), priorities.tolist(), masks, n_old,
            survivors, peer.tau,
        )
        return self._fast_finish(peer, capacity, assigned_old, assigned_new)

    def _supplier_masks(self, supply: np.ndarray) -> List[int]:
        """Each candidate's supplier set packed into one int bitmask."""
        k = supply.shape[0]
        if k <= 64:
            return (
                supply * self._bit_weights[:k, None]
            ).sum(axis=0, dtype=np.uint64).tolist()
        masks = [0] * supply.shape[1]
        cols, slots = np.nonzero(supply.T)
        for col, slot in zip(cols.tolist(), slots.tolist()):
            masks[col] |= 1 << slot
        return masks

    def _fast_finish(
        self,
        peer: PeerNode,
        capacity: int,
        assigned_old: List[Tuple[int, float, int, float, Stream]],
        assigned_new: List[Tuple[int, float, int, float, Stream]],
    ) -> ScheduleDecision:
        tau = peer.tau
        o1_rate = len(assigned_old) / tau
        o2_rate = len(assigned_new) / tau
        split = optimal_split(
            peer.bandwidth.inbound,
            q1=len(peer.wanted_old),
            q2=len(peer.wanted_new),
            q=peer.startup_quota_old,
            p=peer.play_rate,
        )
        allocation = allocate_rates(split, peer.bandwidth.inbound, o1_rate, o2_rate)

        take_old = min(len(assigned_old), int(round(allocation.i1 * tau)))
        take_new = min(len(assigned_new), int(round(allocation.i2 * tau)))
        while take_old + take_new > capacity:
            if take_new >= take_old and take_new > 0:
                take_new -= 1
            elif take_old > 0:
                take_old -= 1
            else:  # pragma: no cover - both zero cannot exceed capacity
                break

        chosen = assigned_old[:take_old] + assigned_new[:take_new]
        if peer.algorithm.work_conserving:
            leftover = capacity - len(chosen)
            if leftover > 0:
                extras = assigned_old[take_old:] + assigned_new[take_new:]
                if extras:
                    extras.sort(key=_priority_order)
                    chosen = chosen + extras[:leftover]
        chosen.sort(key=_priority_order)

        return ScheduleDecision(
            requests=tuple(_new_request(item) for item in chosen),
            i1=allocation.i1,
            i2=allocation.i2,
            r1=split.r1,
            r2=split.r2,
            o1=o1_rate,
            o2=o2_rate,
            case=allocation.case,
        )

    # ------------------------------------------------------------------ #
    # normal switch algorithm (baseline), array form
    # ------------------------------------------------------------------ #
    def _normal_decide(
        self,
        peer: PeerNode,
        capacity: int,
        survivors: _Survivors,
        windows: Sequence[Tuple[int, int]],
        old_ids: np.ndarray,
        new_ids: np.ndarray,
    ) -> ScheduleDecision:
        tau = peer.tau
        old_assigned, queue = self._sequential_pass(
            survivors, windows, old_ids, tau, None, new_pass=False
        )
        old_chosen = old_assigned[:capacity]

        if peer.algorithm.opportunistic_leftover:
            reserved_for_old = len(old_chosen)
        else:
            reserved_for_old = min(capacity, len(peer.wanted_old))
        remaining = capacity - reserved_for_old
        new_chosen: List[Tuple[int, float, int, float, Stream]] = []
        if remaining > 0 and peer.wanted_new:
            new_assigned, _ = self._sequential_pass(
                survivors, windows, new_ids, tau, queue, new_pass=True
            )
            new_chosen = new_assigned[:remaining]

        requests = [_new_request(item) for item in old_chosen]
        requests.extend(_new_request(item) for item in new_chosen)
        return ScheduleDecision(
            requests=tuple(requests),
            i1=len(old_chosen) / tau,
            i2=len(new_chosen) / tau,
            r1=None,
            r2=None,
            o1=len(old_assigned) / tau,
            o2=len(new_chosen) / tau if new_chosen else 0.0,
            case=None,
        )

    def _sequential_pass(
        self,
        survivors: _Survivors,
        windows: Sequence[Tuple[int, int]],
        needed_sorted: np.ndarray,
        period: float,
        initial_queue: Optional[Dict[int, float]],
        *,
        new_pass: bool,
    ) -> Tuple[List[Tuple[int, float, int, float, Stream]], Dict[int, float]]:
        """One pass of the normal algorithm: playback order, rank priorities.

        Ranks are assigned over *all* needed ids (supplier-less ones
        included), exactly as the scalar ``_sequential_candidates``
        enumerates them; zero-mask candidates are skipped by the greedy.
        """
        m = needed_sorted.size
        if m == 0:
            return [], dict(initial_queue) if initial_queue else {}
        supply = self._arrays.present[survivors.rows_col, needed_sorted]
        supply &= _window_mask(needed_sorted, windows)
        if self._rank_recip.size < m:
            self._rank_recip = 1.0 / (
                1.0 + np.arange(max(m, 2 * self._rank_recip.size), dtype=np.float64)
            )
        masks = self._supplier_masks(supply)
        assigned_old, assigned_new, queue = _greedy_masks(
            range(m), needed_sorted.tolist(), self._rank_recip[:m].tolist(),
            masks, 0 if new_pass else m, survivors, period, initial_queue,
        )
        return (assigned_new if new_pass else assigned_old), queue


# --------------------------------------------------------------------------- #
# priority kernels
# --------------------------------------------------------------------------- #
def vectorized_priorities(
    candidates: np.ndarray,
    supply: np.ndarray,
    rates_col: np.ndarray,
    positions: Optional[np.ndarray],
    caps_col: np.ndarray,
    playback_id: int,
    play_rate: float,
    policy: PriorityPolicy,
) -> np.ndarray:
    """Priorities for every candidate, replicating ``priority_for_view``.

    ``candidates`` is ``(m,)`` int64, ``supply`` is ``(k, m)`` bool
    (supplier slot x candidate), ``rates_col``/``caps_col`` are ``(k, 1)``
    columns, ``positions`` is the ``(k, m)`` int64 FIFO-position matrix
    (only consulted for the PAPER policy).  Every floating-point operation
    happens in the same order as the scalar implementation, so results are
    bit-identical: the rarity product multiplies supplier slots in
    ascending order, with non-suppliers contributing an exact ``* 1.0``.
    """
    if policy is PriorityPolicy.SEQUENTIAL:
        return 1.0 / (1.0 + np.maximum(candidates - playback_id, 0))
    receive = np.where(supply, rates_col, -np.inf).max(axis=0)
    distance = (candidates - playback_id) / play_rate
    transfer = np.where(receive > 0, 1.0 / receive, np.inf)
    slack = distance - transfer
    urgency = np.where(slack <= 0, URGENCY_CAP, np.minimum(1.0 / slack, URGENCY_CAP))
    if policy is PriorityPolicy.URGENCY_ONLY:
        return urgency
    if policy is PriorityPolicy.TRADITIONAL_RARITY:
        return np.maximum(urgency, 1.0 / supply.sum(axis=0))
    clamped = np.minimum(np.maximum(positions, 1), caps_col)
    ratios = np.where(supply, clamped / caps_col, 1.0)
    # multiply.reduce multiplies in ascending slot order, matching the
    # scalar product loop bit for bit (float multiplication is performed
    # pairwise left-to-right either way).
    rarity = np.multiply.reduce(ratios, axis=0)
    return np.maximum(urgency, rarity)


# --------------------------------------------------------------------------- #
# array helpers
# --------------------------------------------------------------------------- #
def _scan_top(
    present: np.ndarray,
    rows: np.ndarray,
    lo: int,
    hi: int,
    current: Optional[int],
) -> Optional[int]:
    """Largest id in ``[lo, hi]`` any row holds, if it beats ``current``.

    Returns ``None`` when nothing above ``current`` is present (so the
    caller's marker is already up to date).  The slices clamp at the matrix
    edge; ids beyond it cannot be present.
    """
    if current is not None:
        if current >= hi:
            return None
        if current + 1 > lo:
            lo = current + 1
    if rows.size == 0:
        return None
    block = present[rows, lo : hi + 1]
    if block.size == 0:
        return None
    hits = np.flatnonzero(block.any(axis=0))
    if hits.size == 0:
        return None
    return lo + int(hits[-1])


def _missing_ids(own: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Ids in ``[lo, hi]`` absent from the ``own`` presence row, ascending."""
    if hi < lo:
        return _EMPTY_IDS
    return np.flatnonzero(~own[lo : hi + 1]) + lo


def _window_mask(candidates: np.ndarray, windows: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Membership of each candidate in the union of interest windows."""
    visible = np.zeros(candidates.size, dtype=bool)
    for lo, hi in windows:
        if hi >= lo:
            visible |= (candidates >= lo) & (candidates <= hi)
    return visible


def _priority_order(item: Tuple[int, float, int, float, Stream]) -> Tuple[float, int]:
    return (-item[1], item[0])


def _new_request(item: Tuple[int, float, int, float, Stream]) -> SegmentRequest:
    # Bypasses the frozen-dataclass __init__ (which costs ~2x a plain
    # attribute fill through object.__setattr__); the resulting instance is
    # indistinguishable -- same __dict__, same eq/hash/repr.
    request = object.__new__(SegmentRequest)
    request.__dict__.update(
        seg_id=item[0],
        supplier_id=item[2],
        stream=item[4],
        expected_receive_time=item[3],
    )
    return request


# --------------------------------------------------------------------------- #
# greedy earliest-completion assignment
# --------------------------------------------------------------------------- #
def _greedy_masks(
    order,
    candidates: Sequence[int],
    priorities: Sequence[float],
    masks: List[int],
    n_old: int,
    survivors: _Survivors,
    period: float,
    initial_queue: Optional[Dict[int, float]] = None,
) -> Tuple[
    List[Tuple[int, float, int, float, Stream]],
    List[Tuple[int, float, int, float, Stream]],
    Dict[int, float],
]:
    """Replicates ``greedy_supplier_assignment`` exactly, bitmask-driven.

    Strictly earlier completion wins, the first minimum (in supplier slot
    order -- ascending bit order) is kept, and a completion must fall
    strictly below the period.  ``live_mask`` holds exactly the supplier
    slots whose next completion still beats the period; queue times only
    ever grow, so a slot that leaves the mask never re-enters, candidates
    with no live supplier are skipped in O(1), and once the mask empties no
    later candidate can be assigned -- same result as the scalar greedy in
    a fraction of the iterations.  Candidates at ``order`` positions
    ``>= n_old`` are new-stream.
    """
    queue: Dict[int, float] = dict(initial_queue) if initial_queue else {}
    ids = survivors.ids
    transfers = survivors.transfers
    rates = survivors.rates
    # comp[slot] is the completion time the slot would yield if chosen next;
    # it only changes when the slot is assigned, so keeping it as a list
    # turns the inner scan into plain index/compare work.
    comp = [
        transfers[slot] + queue.get(ids[slot], 0.0) for slot in range(len(ids))
    ]
    live_mask = 0
    for slot, completion in enumerate(comp):
        if rates[slot] > 0 and completion < period:
            live_mask |= 1 << slot
    assigned_old: List[Tuple[int, float, int, float, Stream]] = []
    assigned_new: List[Tuple[int, float, int, float, Stream]] = []
    if live_mask:
        for index in order:
            bits = masks[index] & live_mask
            if not bits:
                continue
            best_time = _INF
            best_slot = -1
            while bits:
                low = bits & -bits
                bits ^= low
                slot = low.bit_length() - 1
                completion = comp[slot]
                if completion < best_time:
                    best_time = completion
                    best_slot = slot
            supplier_id = ids[best_slot]
            queue[supplier_id] = best_time
            if index >= n_old:
                assigned_new.append(
                    (candidates[index], priorities[index],
                     supplier_id, best_time, Stream.NEW)
                )
            else:
                assigned_old.append(
                    (candidates[index], priorities[index],
                     supplier_id, best_time, Stream.OLD)
                )
            next_completion = transfers[best_slot] + best_time
            comp[best_slot] = next_completion
            if next_completion >= period:
                live_mask &= ~(1 << best_slot)
                if not live_mask:
                    break
    return assigned_old, assigned_new, queue
