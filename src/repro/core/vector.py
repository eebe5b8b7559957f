"""Array-native execution engine for the decide phase of a period.

This is the engine sessions run on by default
(:data:`~repro.streaming.session.DEFAULT_ENGINE`).  A session is one
:class:`~repro.streaming.session.SwitchSession` whatever the engine; what
``SessionConfig.engine`` selects is its *decider*, and this module provides
:class:`VectorDecider`, the array form of the readable per-peer reference
(:class:`~repro.streaming.session.OracleDecider`) it is differentially
tested against.  The reference spends most of its budget deciding.  Its
buffer maps are bitmaps (one Python ``int`` per pull, see
:mod:`repro.streaming.buffermap`), so pulling and digesting them is cheap;
what remains is per-candidate Python: one ``priority_for_view`` call, one
supplier tuple and one greedy step for every needed segment somebody
advertises.  This module replaces exactly that with **one batched NumPy
pass per period**:

* every node's FIFO buffer keeps its insertion index in its row of one
  shared ``int32`` ``peers x segments`` matrix (:class:`MirroredBuffer`
  writes it directly): ``index != 0`` is presence, ``counter + 1 - index``
  the FIFO position the rarity term consumes;
* a pre-pass visits the peers in the period's canonical order and does what
  depends on that order or is cheapest per peer: the control-plane pulls
  (the session's one neighbour walk, with its loss draws), switch adoption
  and the highest-known-id update from the OR of the neighbours' bitmaps;
* the undelivered-segment sets of *all* peers come from one gather at
  each peer's own id ranges, and :func:`batched_kernel` then computes the
  supplier bitmasks, urgency, rarity and priority order of the (candidate,
  supplier slot) pairs that supply, in one flattened pass whose
  floating-point operation order matches the scalar implementation exactly
  (sequential per-supplier rarity products, the same ``(-priority,
  seg_id)`` total order);
* what stays per peer is the bitmask greedy over the supplied candidates,
  emitting plain request rows ``(rank, seg_id, supplier_id,
  completion_time)`` -- the session's wire format; a request is never an
  object here -- and the rate split with its four-case allocation
  (``core.allocation``, one call per peer: its arguments hardly ever repeat).

Everything else -- RNG streams, churn, the outbound ledger, request
execution, playback, metrics, probes -- is the session's period pipeline,
shared by both deciders.  The contract is **bit-identity**: for both
switch algorithms the vector engine produces byte-for-byte the same store
documents as the oracle (enforced by ``tests/test_vector_equivalence.py``).
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import allocate_for_model
from repro.core.priority import URGENCY_CAP
from repro.net.fabric import IdealFabric
from repro.obs.telemetry import get_telemetry
from repro.streaming.buffer import SegmentBuffer, range_mask
from repro.streaming.buffermap import UNBOUNDED_CAPACITY
from repro.streaming.peer import _EMPTY_RANGE, PeerNode
from repro.streaming.session import PeriodState, RequestRow, SwitchSession
from repro.streaming.source import SourceNode

__all__ = [
    "SegmentArrays",
    "MirroredBuffer",
    "vectorized_priorities",
]

_INF = float("inf")
#: ``1 << slot`` for the 64 supplier slots one machine word of bitmask holds.
_BIT_WEIGHTS = np.left_shift(np.ones(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))


class SegmentArrays:
    """The shared insertion-index matrix: one row per node, one column per id.

    ``index`` is ``int32``; row ``r`` *is* the index of the buffer bound to
    it (:class:`MirroredBuffer`): ``index[r, seg]`` is the segment's
    insertion number + 1 in that buffer, 0 when it is not held.  So presence
    is ``index != 0`` and a segment's position from the buffer tail is
    ``counter + 1 - index`` (FIFO eviction is a buffer's only removal path).
    Zero-allocated, so columns no row ever held cost no memory.  Growing the
    matrix rebinds the rows of the buffers still alive, which are held
    weakly: a buffer references its matrix, never the other way round.
    """

    def __init__(self, n_rows: int, n_segments: int) -> None:
        self.index = np.zeros((max(1, n_rows), max(1, n_segments)), dtype=np.int32)
        self._buffers: "weakref.WeakSet[MirroredBuffer]" = weakref.WeakSet()

    def bind(self, buffer: "MirroredBuffer") -> None:
        """Make row ``buffer.row`` the buffer's index (growing the rows)."""
        self.ensure_rows(buffer.row + 1)
        self._buffers.add(buffer)
        buffer._index = memoryview(self.index[buffer.row])

    def ensure_segments(self, n: int) -> None:
        """Grow the segment axis (geometrically) to cover ids ``< n``."""
        rows, current = self.index.shape
        if n > current:
            self._resize(rows, max(n, current * 2))

    def ensure_rows(self, n: int) -> None:
        """Grow the node axis (geometrically) to cover rows ``< n``."""
        current, columns = self.index.shape
        if n > current:
            self._resize(max(n, current * 2), columns)

    def _resize(self, rows: int, columns: int) -> None:
        old = self.index
        self.index = np.zeros((rows, columns), dtype=np.int32)
        self.index[: old.shape[0], : old.shape[1]] = old
        for buffer in self._buffers:
            buffer._index = memoryview(self.index[buffer.row])


class MirroredBuffer(SegmentBuffer):
    """A :class:`SegmentBuffer` whose index is a row of :class:`SegmentArrays`.

    It behaves exactly like a plain buffer and writes its insertion numbers
    straight into the shared matrix the batched kernel reads, so there is
    nothing to copy or synchronise; growing its index grows the matrix.
    """

    def __init__(self, capacity: Optional[int], arrays: SegmentArrays, row: int) -> None:
        super().__init__(capacity=capacity)
        self.arrays = arrays
        self.row = int(row)
        arrays.bind(self)

    @classmethod
    def adopt(
        cls, buffer: SegmentBuffer, arrays: SegmentArrays, row: int
    ) -> "MirroredBuffer":
        """Take over an existing buffer's state, copying its index into the row."""
        mirrored = cls(buffer.capacity, arrays, row)
        arrays.ensure_segments(len(buffer._index))
        mirrored._index[: len(buffer._index)] = buffer._index
        mirrored._queue = buffer._queue
        mirrored._head = buffer._head
        mirrored._bits = buffer._bits
        mirrored._counter = buffer._counter
        mirrored.evicted_total = buffer.evicted_total
        return mirrored

    def _grow_index(self, n: int) -> None:
        self.arrays.ensure_segments(n)


class _Survivors:
    """Per-peer neighbourhood structure for one decide pass.

    Plain per-slot lists (slots follow overlay-neighbour order): the greedy
    reads them as they are and the batched kernel concatenates them once per
    period.  Built from the session's neighbour walk
    (:meth:`VectorDecider._survivors_of`), and kept while the same
    neighbours answer at the same rates.
    """

    __slots__ = ("ids", "rows", "rates", "transfers", "caps", "buffers", "wire_bits", "_opening")

    def __init__(
        self,
        ids: List[int],
        rates: List[float],
        buffers: List[MirroredBuffer],
        wire_bits: int,
    ) -> None:
        self.ids = ids
        self.rows = [b.row for b in buffers]
        self.rates = rates
        self.transfers = [1.0 / rate if rate > 0 else _INF for rate in rates]
        self.caps = [
            b.capacity if b.capacity is not None else UNBOUNDED_CAPACITY for b in buffers
        ]
        self.buffers = buffers
        self.wire_bits = wire_bits
        self._opening = (0.0, 0)  # (period, mask): nothing completes within 0

    def opening_mask(self, period: float) -> int:
        """The greedy's live mask before it assigns anything (memoised)."""
        if self._opening[0] != period:
            self._opening = (period, _live_mask(self.rates, self.transfers, period))
        return self._opening[1]


def _live_mask(rates: List[float], completions: List[float], period: float) -> int:
    """The supplier slots that send and whose next completion beats ``period``."""
    return sum(
        1 << slot
        for slot, (rate, completion) in enumerate(zip(rates, completions))
        if rate > 0 and completion < period
    )


#: One vectorised peer of a period: the peer, its surviving neighbourhood and
#: the (pre-adoption) interest windows its neighbours' maps were clipped to.
_Job = Tuple[PeerNode, _Survivors, List[Tuple[int, int]]]


class VectorDecider:
    """The array-native decider (``SessionConfig.engine == "vector"``).

    The array form of :class:`~repro.streaming.session.OracleDecider`'s two
    calls.  :meth:`adopt` notes a node the session created; before the next
    decide pass its buffer is swapped for a :class:`MirroredBuffer` bound to
    a row of the shared :class:`SegmentArrays` (in one bulk copy, so the
    warm-up's seeding stays the scalar fast path).  :meth:`decide` is the
    batched pass described in the module docstring.  Every other phase of a
    period is the session's own code, and RNG consumption is draw-for-draw
    that of the reference: the pulls go through the session's one neighbour
    walk.  The decider keeps no reference to the session.
    """

    def __init__(self) -> None:
        self._arrays: Optional[SegmentArrays] = None
        #: adopted nodes whose buffer is not mirrored yet
        self._unmirrored: List["PeerNode | SourceNode"] = []
        self._next_row = 0
        self._survivor_cache: Dict[int, _Survivors] = {}
        self._cached_alive: Optional[set] = None
        self._capacity_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # array construction
    # ------------------------------------------------------------------ #
    def adopt(self, node: "PeerNode | SourceNode") -> None:
        """Queue ``node`` for mirroring at the start of the next decide pass."""
        self._unmirrored.append(node)

    def _mirror_adopted(self, session: SwitchSession) -> None:
        if self._arrays is None:
            cfg = session.config
            plan = session.switch_plan
            # Size the segment axis for everything the run can generate or
            # advertise interest in; a buffer still grows it on demand.
            horizon_ids = plan.id_begin + int(cfg.play_rate * (cfg.max_time + 2.0 * cfg.tau))
            startup_ids = plan.id_begin + cfg.startup_quota_new + cfg.lookahead // 4
            n_segments = max(horizon_ids, startup_ids, cfg.old_stream_segments) + 64
            self._arrays = SegmentArrays(len(self._unmirrored) + 8, n_segments)
        for node in self._unmirrored:
            node.buffer = MirroredBuffer.adopt(node.buffer, self._arrays, self._next_row)
            self._next_row += 1
        self._unmirrored.clear()

    # ------------------------------------------------------------------ #
    # the vector decide phase
    # ------------------------------------------------------------------ #
    def decide(self, session: SwitchSession, state: PeriodState) -> None:
        """Pre-pass in canonical order, then one array pass per period.

        Peers never read each other's decide-phase state, so only what
        draws randomness -- the control-plane pulls -- has to happen peer by
        peer in ``state.order``.  The pre-pass does that together with the
        cheap scalar knowledge updates (switch adoption, highest known ids
        from the OR-ed neighbour bitmaps); wanted sets, supply, priorities,
        the priority order and the supplier bitmasks of *all* peers then come
        from one batched kernel, fast or normal as the session's config says.
        """
        self._mirror_adopted(session)
        peers, sources = session.peers, session.sources
        ideal = type(session.fabric) is IdealFabric
        alive = peers.keys() | sources.keys()
        if alive != self._cached_alive:  # keep nothing for a node that left
            self._cached_alive = alive
            if ideal:
                self._survivor_cache.clear()
            for cache in (self._survivor_cache, self._capacity_cache):
                for node_id in cache.keys() - alive:
                    del cache[node_id]
        # Announcers are fixed for the whole phase: deciding never delivers
        # data, so ``has_new_data`` cannot flip mid-loop.
        announcers = {
            node_id
            for node_id, source in sources.items()
            if source.switch_plan is not None
        }
        announcers.update(
            node_id
            for node_id, peer in peers.items()
            if peer.switch_plan is not None and peer.has_new_data
        )
        switch_info = (session.switch_plan.id_end, session.switch_plan.id_begin)
        now = state.now
        rows = state.request_rows
        jobs: List[_Job] = []
        for node_id in state.order:
            peer = peers[node_id]
            windows = peer.interest_windows()
            survivors = self._survivors_of(session, node_id, state, ideal)
            # Switch adoption comes before the horizon update, as in the oracle.
            if peer.switch_plan is None and not announcers.isdisjoint(survivors.ids):
                peer._adopt_switch(switch_info, now)
            # Maps advertise buffer ∩ interest windows, and the windows were
            # computed *before* any mid-round switch adoption -- a just-adopted
            # peer cannot see suppliers for ids outside its pre-adoption windows.
            window = advertised = 0
            for lo, hi in windows:
                window |= range_mask(lo, hi)
            for buffer in survivors.buffers:
                advertised |= buffer._bits
            peer._extend_horizons(advertised & window)
            jobs.append((peer, survivors, windows))
        if jobs:
            with np.errstate(divide="ignore"):
                self._decide_batch(jobs, session.config.algorithm == "fast", rows)
        obs = get_telemetry()
        if obs.enabled:
            obs.counter("engine.dispatch.vector").add(len(jobs))

    def _survivors_of(
        self, session: SwitchSession, node_id: int, state: PeriodState, ideal: bool
    ) -> _Survivors:
        """``node_id``'s answering neighbourhood, from the session's walk.

        The ideal fabric draws nothing and drops nothing, so there the
        walk's result is reused (and its control traffic re-counted) until
        membership changes; elsewhere, while the same neighbours answer at
        the same rates.
        """
        entry = self._survivor_cache.get(node_id)
        if ideal and entry is not None:
            state.control_pulls += len(entry.ids)
            state.control_bits += entry.wire_bits
            return entry
        nodes, rates, wire_bits = session.pull_neighbours(node_id, state)
        ids = [node.node_id for node in nodes]
        if entry is None or entry.ids != ids or entry.rates != rates:
            entry = _Survivors(ids, rates, [node.buffer for node in nodes], wire_bits)
            self._survivor_cache[node_id] = entry
        return entry

    def _decide_batch(
        self,
        jobs: List[_Job],
        fast: bool,
        rows: Dict[int, Sequence[RequestRow]],
    ) -> None:
        """Decide the period's peers in one pass.

        ``fast`` selects the fast algorithm (priority order) over the normal
        one (playback order).  Sets every peer's wanted sets (authoritative:
        collectors read them) and files its request rows.
        """
        arrays = self._arrays
        table = np.array(
            [
                (
                    peer.buffer.row, peer._current_playback_id(),
                    *peer._wanted_old_range(), *peer._wanted_new_range(),
                    *windows[0], *(windows[1] if len(windows) > 1 else _EMPTY_RANGE),
                )
                for peer, _, windows in jobs
            ],
            dtype=np.int64,
        )
        # -- undelivered segments: each peer's old range, then its new range,
        #    laid end to end; old ids precede new ones, so each peer's
        #    candidates come out ascending with its old-stream ones first -- #
        lo = table[:, 2:6:2].ravel()  # per peer: old range, new range
        length = np.maximum(table[:, 3:6:2].ravel() - lo + 1, 0)
        run = np.repeat(np.arange(length.size), length)  # (peer, range) of each id
        ids = np.arange(run.size) + np.repeat(lo - (np.cumsum(length) - length), length)
        arrays.ensure_segments(int(ids.max(initial=0)) + 1)
        missing = arrays.index[table[run >> 1, 0], ids] == 0
        candidates, run = ids[missing], run[missing]
        job_of = run >> 1
        counts = np.bincount(run, minlength=length.size).reshape(-1, 2)
        stops = np.cumsum(counts.sum(axis=1))
        splits = stops - counts[:, 1]  # each peer's first new-stream candidate
        w = table[job_of, 6:]  # the two interest windows

        supplied, _, order, masks = batched_kernel(
            arrays,
            [survivors for _, survivors, _ in jobs],
            candidates,
            job_of,
            ((w[:, 0] <= candidates) & (candidates <= w[:, 1]))
            | ((w[:, 2] <= candidates) & (candidates <= w[:, 3])),
            table[:, 1],
            np.array([peer.play_rate for peer, _, _ in jobs]),
            fast,
        )
        # Each peer's supplied candidates, and where its new-stream ones begin.
        offered = np.searchsorted(supplied, np.stack([splits, stops], axis=1)).tolist()
        offered_ids = candidates[supplied].tolist()
        candidates = candidates.tolist()
        start = first = 0
        for (peer, survivors, _), stop, split, (middle, end) in zip(
            jobs, stops.tolist(), splits.tolist(), offered
        ):
            peer.wanted_old = set(candidates[start:split])
            peer.wanted_new = set(candidates[split:stop])
            capacity = self._capacity_of(peer)
            if capacity <= 0 or end == first:
                # No capacity or nothing wanted that anybody advertises:
                # every algorithm branch requests nothing.
                rows[peer.node_id] = ()
            elif not fast:
                rows[peer.node_id] = self._normal_finish(
                    peer, capacity, survivors, offered_ids[first:end], masks[first:end],
                    middle - first, split - start,
                )
            else:
                # Supplied candidates ascend, so the kernel's stable sort on
                # descending priority breaks ties towards earlier segments: a
                # row's rank is its place in the total order (-priority, seg_id).
                assigned_old, assigned_new, _ = _greedy_masks(
                    order[first:end], offered_ids[first:end], masks[first:end],
                    middle - first, survivors, peer.tau,
                )
                rows[peer.node_id] = self._fast_finish(
                    peer, capacity, assigned_old, assigned_new
                )
            start, first = stop, end

    def _capacity_of(self, peer: PeerNode) -> int:
        capacity = self._capacity_cache.get(peer.node_id)
        if capacity is None:
            capacity = max(0, int(round(peer.bandwidth.inbound * peer.tau)))
            self._capacity_cache[peer.node_id] = capacity
        return capacity

    # ------------------------------------------------------------------ #
    # fast switch algorithm (Algorithm 1): after the greedy
    # ------------------------------------------------------------------ #
    def _fast_finish(
        self,
        peer: PeerNode,
        capacity: int,
        assigned_old: List[RequestRow],
        assigned_new: List[RequestRow],
    ) -> List[RequestRow]:
        tau = peer.tau
        allocation = allocate_for_model(
            peer.bandwidth.inbound, len(peer.wanted_old), len(peer.wanted_new),
            peer.startup_quota_old, peer.play_rate,
            len(assigned_old) / tau, len(assigned_new) / tau,
        )
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
        leftover = capacity - len(chosen)  # the algorithm is work-conserving
        if leftover > 0:
            extras = assigned_old[take_old:] + assigned_new[take_new:]
            extras.sort()
            chosen += extras[:leftover]
        # Ranks are unique within a peer: a bare sort is the priority order.
        chosen.sort()
        peer.requests_issued += len(chosen)
        return chosen

    # ------------------------------------------------------------------ #
    # normal switch algorithm (baseline): two greedy passes in playback order
    # ------------------------------------------------------------------ #
    def _normal_finish(
        self,
        peer: PeerNode,
        capacity: int,
        survivors: _Survivors,
        candidates: List[int],
        masks: List[int],
        n_old: int,
        n_wanted_old: int,
    ) -> List[RequestRow]:
        """Both passes walk the supplied ids of their stream in playback
        order, as the scalar ``_sequential_candidates`` enumerates them, and
        stop once they hold what they may keep: pass 2 only runs when pass 1
        kept fewer than ``capacity``, so it gets pass 1's whole queue."""
        tau = peer.tau
        chosen, _, queue = _greedy_masks(
            range(n_old), candidates, masks, n_old, survivors, tau, limit=capacity
        )
        remaining = capacity - min(capacity, n_wanted_old)
        if remaining > 0 and len(candidates) > n_old:
            _, new_assigned, _ = _greedy_masks(
                range(n_old, len(candidates)), candidates, masks, n_old, survivors, tau, queue,
                limit=remaining,
            )
            chosen += new_assigned
        peer.requests_issued += len(chosen)
        return chosen


# --------------------------------------------------------------------------- #
# the batched per-period kernels
# --------------------------------------------------------------------------- #
def batched_kernel(
    arrays: SegmentArrays,
    survivors: Sequence[_Survivors],
    candidates: np.ndarray,
    job_of: np.ndarray,
    visible: np.ndarray,
    playback_ids: np.ndarray,
    play_rates: np.ndarray,
    fast: bool,
) -> Tuple[np.ndarray, Optional[List[float]], Optional[List[int]], List[int]]:
    """Supply, priorities, priority order and supplier bitmasks of a period.

    ``survivors`` / ``playback_ids`` / ``play_rates`` describe the peers
    (*jobs*); ``candidates`` holds every peer's wanted ids back to back
    (ascending within a peer), ``job_of`` the peer each belongs to
    (ascending) and ``visible`` whether it lies inside that peer's interest
    windows.  The (candidate, supplier slot) pairs are laid out *flattened*:
    candidate ``i`` owns ``k`` consecutive elements, one per slot of its
    peer in ascending slot order, so ragged supplier counts cost nothing.
    After the one gather of the index only the *supplying* elements are
    kept.  That is exact: a non-supplier adds no mask bit, ``* 1.0`` to the
    rarity product, ``-inf`` to the rate maximum and 0 to the supplier
    count, and :func:`vectorized_priorities` still reduces the remaining
    slots in the scalar order.

    Returns ``(supplied, priorities, order, masks)``: the ascending
    positions in ``candidates`` of the supplied candidates, and three lists
    aligned with them (any other candidate has mask 0 and no priority).
    ``masks`` packs a candidate's supplier slots into one int; ``order`` is,
    per peer, the stable descending-priority permutation of its supplied
    candidates in peer-local indices.  ``fast=False`` (the normal algorithm
    needs no priorities) yields ``(supplied, None, None, masks)``.
    """
    k_of = np.array([len(s.ids) for s in survivors], dtype=np.intp)
    k_col = k_of[job_of]
    ends = np.cumsum(k_col)
    elem_col = np.repeat(np.arange(candidates.size), k_col)
    elem_slot = np.arange(elem_col.size) - (ends - k_col)[elem_col]
    elem_flat = (np.cumsum(k_of) - k_of)[job_of][elem_col] + elem_slot
    held = arrays.index[_per_slot(survivors, "rows", np.intp)[elem_flat], candidates[elem_col]]
    keep = np.flatnonzero((held != 0) & visible[elem_col])
    col, slot, flat = elem_col[keep], elem_slot[keep], elem_flat[keep]
    starts = np.flatnonzero(np.diff(col, prepend=-1))  # one run per supplied candidate
    supplied = col[starts]

    low = slot < 64
    masks = np.add.reduceat(_BIT_WEIGHTS[slot & 63] * low, starts).tolist()
    if not low.all():
        high = np.flatnonzero(~low)
        runs = np.searchsorted(starts, high, side="right") - 1
        for index, bit in zip(runs.tolist(), slot[high].tolist()):
            masks[index] |= 1 << bit
    if not fast:
        return supplied, None, None, masks

    counters = np.fromiter(
        (b._counter for s in survivors for b in s.buffers), np.int64, count=int(k_of.sum())
    )
    positions = counters[flat] + 1 - held[keep]
    job = job_of[supplied]
    priorities = vectorized_priorities(
        candidates[supplied],
        np.ones(keep.size, dtype=bool),
        _per_slot(survivors, "rates", np.float64)[flat],
        positions,
        _per_slot(survivors, "caps", np.int64)[flat],
        playback_ids[job],
        play_rates[job],
        starts=starts,
    )
    order = np.lexsort((-priorities, job)) - np.searchsorted(job, job)
    # One tolist per array instead of numpy-scalar conversions per
    # assignment; downstream consumers (requests, store documents) then
    # only ever see native Python ints/floats.
    return supplied, priorities.tolist(), order.tolist(), masks


def _per_slot(survivors: Sequence[_Survivors], name: str, dtype) -> np.ndarray:
    """One per-slot attribute of every peer's survivors, concatenated."""
    return np.fromiter(
        chain.from_iterable(getattr(s, name) for s in survivors), dtype
    )


def vectorized_priorities(
    candidates: np.ndarray,
    supply: np.ndarray,
    rates_col: np.ndarray,
    positions: np.ndarray,
    caps_col: np.ndarray,
    playback_id,
    play_rate,
    *,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Priorities for every candidate, replicating ``priority_for_view``.

    ``candidates`` is ``(m,)`` int64, ``supply`` is ``(k, m)`` bool
    (supplier slot x candidate), ``rates_col``/``caps_col`` are ``(k, 1)``
    columns, ``positions`` is the ``(k, m)`` int64 FIFO-position matrix.
    Nothing in the engine calls this one-peer ``(k, m)`` form any more: it
    is kept as the reference the property tests hold the flattened form (and
    ``priority_for_view``) against.  With ``starts`` the slot axis is
    *flattened* instead (what :func:`batched_kernel` passes): the four slot
    arrays are 1-D, candidate ``i`` owns the elements from ``starts[i]`` up
    to ``starts[i + 1]`` in ascending slot order, and ``playback_id`` /
    ``play_rate`` may be per-candidate arrays.  Every floating-point
    operation happens in the same order as the scalar implementation, so
    results are bit-identical: the rarity product multiplies supplier slots
    in ascending order, with non-suppliers contributing an exact ``* 1.0``.
    """
    if starts is None:
        def over_slots(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
            return ufunc.reduce(values, axis=0)
    else:
        def over_slots(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
            return ufunc.reduceat(values, starts)
    receive = over_slots(np.maximum, np.where(supply, rates_col, -np.inf))
    distance = (candidates - playback_id) / play_rate
    transfer = np.where(receive > 0, 1.0 / receive, np.inf)
    slack = distance - transfer
    urgency = np.where(slack <= 0, URGENCY_CAP, np.minimum(1.0 / slack, URGENCY_CAP))
    clamped = np.minimum(np.maximum(positions, 1), caps_col)
    ratios = np.where(supply, clamped / caps_col, 1.0)
    # Both reductions multiply pairwise left-to-right in ascending slot
    # order, matching the scalar product loop bit for bit.
    rarity = over_slots(np.multiply, ratios)
    return np.maximum(urgency, rarity)


# --------------------------------------------------------------------------- #
# greedy earliest-completion assignment
# --------------------------------------------------------------------------- #
def _greedy_masks(
    order,
    candidates: Sequence[int],
    masks: List[int],
    n_old: int,
    survivors: _Survivors,
    period: float,
    initial_queue: Optional[Dict[int, float]] = None,
    *,
    limit: int = -1,
) -> Tuple[List[RequestRow], List[RequestRow], Dict[int, float]]:
    """Replicates ``greedy_supplier_assignment`` exactly, bitmask-driven.

    Strictly earlier completion wins, the first minimum (in supplier slot
    order -- ascending bit order) is kept, and a completion must fall
    strictly below the period.  ``live_mask`` holds exactly the supplier
    slots whose next completion still beats the period; queue times only
    ever grow, so a slot that leaves the mask never re-enters, candidates
    with no live supplier are skipped in O(1), and once the mask empties no
    later candidate can be assigned -- same result as the scalar greedy in
    a fraction of the iterations.  A positive ``limit`` stops the walk once
    that many rows are assigned (the rows are the scalar greedy's first
    ``limit``; its queue is not).  Returns the old-stream rows, the
    new-stream rows (candidates at ``order`` values ``>= n_old``) and the
    supplier queue; a row's ``rank`` is its candidate's position in
    ``order``.
    """
    ids = survivors.ids
    transfers = survivors.transfers
    # comp[slot] is the completion time the slot would yield if chosen next;
    # it only changes when the slot is assigned, so keeping it as a list
    # turns the inner scan into plain index/compare work.
    queue: Dict[int, float] = dict(initial_queue) if initial_queue else {}
    if queue:
        comp = [transfers[slot] + queue.get(ids[slot], 0.0) for slot in range(len(ids))]
        live_mask = _live_mask(survivors.rates, comp, period)
    else:
        comp = list(transfers)
        live_mask = survivors.opening_mask(period)
    assigned_old: List[RequestRow] = []
    assigned_new: List[RequestRow] = []
    if live_mask:
        for rank, index in enumerate(order):
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
            row = (rank, candidates[index], supplier_id, best_time)
            if index >= n_old:
                assigned_new.append(row)
            else:
                assigned_old.append(row)
            limit -= 1
            if not limit:
                break
            next_completion = transfers[best_slot] + best_time
            comp[best_slot] = next_completion
            if next_completion >= period:
                live_mask &= ~(1 << best_slot)
                if not live_mask:
                    break
    return assigned_old, assigned_new, queue
