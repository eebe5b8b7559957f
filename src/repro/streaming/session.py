"""The two-source switch session: one full simulation run.

:class:`SwitchSession` assembles the whole system -- overlay, sources,
peers, bandwidth, churn, metrics -- and runs it as a loop over periods:

1. **Setup** (time 0): build the overlay from a (synthetic) trace, augment
   it to the minimum degree ``M``, pick the two source nodes, assign
   bandwidth, create the peers and seed them into the steady state of the
   old stream (analytic warm-up) or start a simulated warm-up at
   ``-warmup_duration``, whose end announces the switch at time 0.
2. **Periods** (every ``tau`` seconds, one :meth:`SwitchSession.step`
   each): ``SwitchSession._round`` is the list
   of phases, each a method taking the period's :class:`PeriodState`:
   *arrive* (delayed segments due by now land, :func:`due_arrivals`) ->
   *churn* (membership change) -> *generate* (new segments, fresh upload
   budgets, the period's peer order) -> *decide* (buffer-map pulls, charged
   as control traffic, and the switch algorithm) -> *exchange* (transfers
   against the suppliers' outbound budgets) -> *flush* (playback) ->
   *sample* (metrics, stop test).  Only the decide phase differs between
   the two engines: ``config.engine`` picks the session's *decider*
   (:class:`OracleDecider` here, ``VectorDecider`` in
   :mod:`repro.core.vector`).
3. **Stop**: when every tracked peer has completed its source switch or the
   time horizon is reached; ``run()`` then closes the session.

The session is deterministic for a given :class:`SessionConfig` (seed
included), and the *same* seed produces the *same* overlay, bandwidth and
churn schedule for different switch algorithms, so algorithm comparisons
are paired exactly as in the paper.

This module is the machine only: the records it takes and returns
(:class:`SessionConfig`, :class:`PeriodDirective`, :class:`SessionResult`,
the algorithm and engine names) live in the leaf :mod:`repro.streaming.config`
and are imported back here, so stores and reports never load the simulator.
"""

from __future__ import annotations

import time as _wallclock
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.churn.model import ChurnModel
from repro.core.base import Stream, SwitchAlgorithm
from repro.metrics.collectors import MetricsCollector
from repro.metrics.overhead import OverheadAccountant
from repro.net.fabric import NetworkFabric, build_fabric
from repro.obs.probes import (
    DROP_NET_LOSS,
    DROP_NO_BUDGET,
    DROP_SUPPLIER_GONE,
    STAGE_ASSIGNED,
    STAGE_DELIVERED,
    STAGE_DROPPED,
    STAGE_MISSED,
    STAGE_PLAYED,
    STAGE_REQUESTED,
    STAGE_SCHEDULED,
    NullProbeSet,
    ProbeSet,
)
from repro.obs.telemetry import get_telemetry
from repro.net.library import get_topology
from repro.overlay.augment import augment_to_min_degree
from repro.overlay.generator import generate_trace
from repro.overlay.membership import MembershipService
from repro.overlay.topology import NodeInfo, Overlay, build_overlay_from_trace
from repro.sim.clock import round_half_up
from repro.sim.rng import RandomStreams
from repro.streaming.bandwidth import (
    BandwidthProfile,
    OutboundLedger,
    draw_class_indices,
    sample_rates,
)
from repro.streaming.buffermap import buffer_map_bits
from repro.streaming.config import ALGORITHM_FACTORIES, DEFAULT_ENGINE, ENGINE_NAMES  # re-exported
from repro.streaming.config import PeriodDirective, SessionConfig, SessionResult
from repro.streaming.peer import PeerNode
from repro.streaming.protocol import SEGMENT_REQUEST_BITS
from repro.streaming.segment import DEFAULT_SEGMENT_BITS, StreamSpec, SwitchPlan
from repro.streaming.source import SourceNode

if TYPE_CHECKING:  # pragma: no cover - the array engine imports this module
    from repro.core.vector import VectorDecider

__all__ = [
    "SessionConfig",
    "SessionResult",
    "SwitchSession",
    "RequestConservationError",
    "PeriodDirective",
    "build_session_overlay",
    "ALGORITHM_FACTORIES",
    "ENGINE_NAMES",
    "DEFAULT_ENGINE",
]


def build_session_overlay(
    n_nodes: int,
    seed: int,
    *,
    min_degree: int = 5,
    trace_mean_degree: float = 2.0,
) -> Overlay:
    """Build the overlay a session with this (size, seed) would build.

    Exposed so the workload engine can construct one overlay per repetition
    and hand it to every switch segment (each session takes its own copy,
    so all zaps start from the same initial topology); the result is
    identical to what :class:`SwitchSession` builds internally for the
    same parameters.
    """
    streams = RandomStreams(seed)
    trace = generate_trace(n_nodes, seed=seed, mean_degree=trace_mean_degree)
    overlay = build_overlay_from_trace(trace)
    augment_to_min_degree(overlay, min_degree, streams.get("augment"))
    return overlay


#: The directive of a period nobody scripted.
_NEUTRAL = PeriodDirective()

#: One request as the deciders file it and the exchange reads it: ``(rank,
#: seg_id, supplier_id, completion_time)``.  ``rank`` orders a peer's requests
#: (the array engine sorts on it; nothing reads it afterwards) and
#: ``completion_time`` is the scheduler's estimate, from the period's start.
RequestRow = Tuple[int, int, int, float]


@dataclass
class PeriodState:
    """What the phases of one scheduling period hand to each other.

    ``SwitchSession._round`` creates one per period and passes it to every
    phase in turn.  A phase reads what earlier phases stored and stores its
    own totals once, at its end; hot per-request counters stay locals inside
    the phase until then.
    """

    now: float
    index: int  #: 1-based count of the session's periods, warm-up rounds included
    directive: PeriodDirective
    order: List[int] = field(default_factory=list)  #: shuffled peer ids (generate)
    #: each peer's requests in issue order (decide); read out in ``order``
    request_rows: Dict[int, Sequence[RequestRow]] = field(default_factory=dict)
    #: advertised rate ``R(j)`` per supplier: churn only runs before the
    #: decide phase, so a supplier advertises one value to all its neighbours
    send_rates: Dict[int, float] = field(default_factory=dict)
    control_pulls: int = 0  #: buffer maps pulled / lost on the fabric / their bits
    control_dropped: int = 0
    control_bits: int = 0
    requests: int = 0  #: request totals (exchange)
    failed: int = 0
    delayed: int = 0
    #: ``(peer, seg_id, supplier_id)`` delivered within the period
    deliveries: List[Tuple[PeerNode, int, int]] = field(default_factory=list)


def due_arrivals(calendar: List[tuple], now: float, index: float) -> List[tuple]:
    """Take from ``calendar``, in order, what lands before round ``index`` at ``now``.

    Records are ``(arrival time, sending round, send order in it, receiver,
    segment, supplier, delay)``: sorted, they are in the ``(time, sequence)``
    order of an event queue holding one event per delivery.  Round ``index``
    is such an event too, pushed by round ``index - 1`` *before* it exchanges,
    so a record landing exactly on ``now`` is due only if an earlier round
    sent it; one round ``index - 1`` sent waits for the next drain.  An
    infinite ``index`` takes everything that has arrived by ``now``.
    """
    calendar.sort()
    cut = bisect_left(calendar, (now, index - 1))
    due = calendar[:cut]
    del calendar[:cut]
    return due


class RequestConservationError(RuntimeError):
    """A period's requests are not all accounted for after the exchange:
    each ends delivered within the period, delayed on the calendar or failed."""


class OracleDecider:
    """The reference decider: peer by peer, through each peer's own objects.

    A *decider* is what ``SessionConfig.engine`` selects, and the only part
    of a period the two engines do differently.  The session calls
    :meth:`adopt` for every node that enters it and :meth:`decide` once per
    period; :class:`repro.core.vector.VectorDecider` is the array form of
    the same two calls.
    """

    def adopt(self, node: "PeerNode | SourceNode") -> None:
        """Nothing to prepare: the reference reads the node objects as they are."""

    def decide(self, session: "SwitchSession", state: PeriodState) -> None:
        """File every peer's request rows in ``state.request_rows``."""
        for node_id in state.order:
            state.request_rows[node_id] = self.decide_peer(
                session, session.peers[node_id], state
            )
        obs = get_telemetry()
        if obs.enabled:
            obs.counter("engine.dispatch.scalar").add(len(state.order))

    @staticmethod
    def decide_peer(
        session: "SwitchSession", peer: PeerNode, state: PeriodState
    ) -> List[RequestRow]:
        """One peer's period: pull its neighbours' maps, run its algorithm.

        Returns the decision's requests flattened into rows.  Also how the
        array engine decides a peer whose algorithm has no array form.
        """
        windows = peer.interest_windows()
        nodes, rates, _ = session.pull_neighbours(peer.node_id, state)
        snapshots = [
            node.snapshot_for(windows, send_rate=rate) for node, rate in zip(nodes, rates)
        ]
        return [
            (rank, request.seg_id, request.supplier_id, request.expected_receive_time)
            for rank, request in enumerate(peer.decide(snapshots, state.now).requests)
        ]


class SwitchSession:
    """One end-to-end source-switch simulation (see module docstring).

    Parameters
    ----------
    config:
        The full run configuration.
    algorithm_factory:
        Override for the switch-algorithm constructor (defaults to the
        configured algorithm).
    overlay:
        Pre-built overlay to start from (the session takes its own copy);
        defaults to building one from the config.
    directives:
        Per-period environment overrides (the workload/universe engines).
    label:
        Free-form tag (e.g. the channel name) carried for bookkeeping.
    membership_factory:
        Override for membership-service construction; called with the
        session's overlay and the protected source ids.  The channel
        directory injects per-channel membership services this way.
    fabric:
        Override for the network fabric.  Defaults to a
        :class:`~repro.net.fabric.LatencyFabric` built from
        ``config.topology`` (seeded from the session's ``"net"`` stream,
        so paired runs and worker fan-outs stay deterministic) or, with no
        topology configured, the zero-latency
        :class:`~repro.net.fabric.IdealFabric`.
    """

    def __init__(
        self,
        config: SessionConfig,
        *,
        algorithm_factory: Optional[Callable[[], SwitchAlgorithm]] = None,
        overlay: Optional[Overlay] = None,
        directives: Optional[Mapping[int, PeriodDirective]] = None,
        label: str = "",
        membership_factory: Optional[
            Callable[[Overlay, frozenset], MembershipService]
        ] = None,
        fabric: Optional[NetworkFabric] = None,
    ) -> None:
        self.config = config
        self.label = label
        self._algorithm_factory = algorithm_factory or config.make_algorithm
        self._membership_factory = membership_factory
        self._directives: Dict[int, PeriodDirective] = dict(directives or {})
        if config.engine == "vector":
            from repro.core.vector import VectorDecider

            self._decider: "OracleDecider | VectorDecider" = VectorDecider()
        else:
            self._decider = OracleDecider()
        self.streams = RandomStreams(config.seed)
        if fabric is not None:
            self.fabric = fabric
        else:
            topology = get_topology(config.topology) if config.topology else None
            self.fabric = build_fabric(
                topology, self.streams.get("net") if topology else None
            )
        #: the start time, then the time of the last period run
        self.now = float(-config.warmup_duration if config.warmup == "simulated" else 0.0)
        #: region pin per bandwidth-class name (classes without a pin
        #: omitted; the ideal fabric has no regions to pin to)
        self._class_region_pin: Dict[str, str] = {
            cls.name: cls.region
            for cls in config.peer_classes
            if cls.region and self.fabric.topology is not None
        }
        #: wire size of one buffer map pulled from a peer / from a source
        #: (sources advertise the standard 600-slot bitmap)
        self._map_bits = (buffer_map_bits(config.buffer_capacity), buffer_map_bits(600))
        self._stop_reason: Optional[str] = None
        self._closed = False
        self._wallclock = 0.0
        self.overlay = overlay.copy() if overlay is not None else build_session_overlay(
            config.n_nodes,
            config.seed,
            min_degree=config.min_degree,
            trace_mean_degree=config.trace_mean_degree,
        )
        self.peers: Dict[int, PeerNode] = {}
        self.sources: Dict[int, SourceNode] = {}
        self._departed: List[PeerNode] = []
        self._departed_stalls = 0
        self._outbound: Dict[int, float] = {}
        self.overhead = OverheadAccountant()
        self.collector = MetricsCollector(config.startup_quota_new)
        self.rounds_run = 0
        self._calendar: List[tuple] = []  #: delayed segments in flight (due_arrivals)
        self._setup()

    # ================================================================== #
    # construction
    # ================================================================== #
    def _setup(self) -> None:
        cfg = self.config
        rng = self.streams.get("setup")

        self.old_source_id, self.new_source_id = self._choose_sources(rng)
        source_ids = (self.old_source_id, self.new_source_id)
        peer_ids = [n for n in self.overlay.node_ids if n not in source_ids]
        profiles = self._draw_profiles(
            len(peer_ids),
            self.streams.get("peer-class"),
            self.streams.get("inbound"),
            self.streams.get("outbound"),
        )
        # Peer classes that pin a region override the topology's
        # weighted-random draw for their members; the draw is still consumed
        # for every node, so pinning one class never perturbs the other
        # nodes' placement.  The ideal fabric ignores all of this.
        self.fabric.assign_regions(
            self.overlay.node_ids,
            {
                node_id: self._class_region_pin[class_name]
                for node_id, (class_name, _, _) in zip(peer_ids, profiles)
                if class_name in self._class_region_pin
            },
        )
        for node_id, profile in zip(peer_ids, profiles):
            self._add_peer(node_id, profile, tracked=True, now=0.0)
        self._create_sources()

        protected = frozenset(source_ids)
        if self._membership_factory is not None:
            self.membership = self._membership_factory(self.overlay, protected)
        else:
            self.membership = MembershipService(
                self.overlay,
                cfg.min_degree,
                self.streams.get("membership"),
                protected=protected,
            )
        if self.fabric.locality_bias > 1.0:
            self.membership.set_locality(
                self.fabric.region_index_of, self.fabric.locality_bias
            )
        self.churn = ChurnModel(cfg.churn, self.streams.get("churn"))
        self.ledger = OutboundLedger(self._outbound, cfg.tau)

        if cfg.warmup == "analytic":
            self._analytic_warmup()
            self._announce_switch()
        else:
            # step() announces the switch (and records Q0) at time 0, after
            # the last warm-up period.
            for peer in self.peers.values():
                peer.init_fresh_playback(position=0)

        self.collector.sample_round(
            max(self.now, 0.0), list(self.peers.values()), self._departed_stalls
        )

    def _choose_sources(self, rng: np.random.Generator) -> Tuple[int, int]:
        """Pick two low-degree nodes as the old and new sources.

        Hubs are avoided so that neither source starts with an unrealistic
        number of direct neighbours (the paper's sources are ordinary
        members that happen to speak).
        """
        by_degree = sorted(self.overlay.node_ids, key=lambda n: (self.overlay.degree(n), n))
        candidates = by_degree[: max(10, len(by_degree) // 4)]
        order = rng.permutation(len(candidates))
        first = int(candidates[int(order[0])])
        second = int(candidates[int(order[1])])
        return first, second

    def _draw_profiles(
        self,
        count: int,
        class_rng: np.random.Generator,
        inbound_rng: np.random.Generator,
        outbound_rng: np.random.Generator,
    ) -> List[Tuple[str, float, float]]:
        """``(class name, inbound, outbound)`` for ``count`` new peers.

        Set-up draws the whole population from three dedicated streams; a
        churn joiner is one draw with its ``"join-bandwidth"`` stream in all
        three roles.
        """
        cfg = self.config
        if cfg.peer_classes:
            indices = draw_class_indices(count, cfg.peer_classes, class_rng)
            classes = [cfg.peer_classes[int(index)] for index in indices]
            return [
                (cls.name, cls.sample_inbound(inbound_rng), cls.sample_outbound(outbound_rng))
                for cls in classes
            ]
        inbound = sample_rates(
            count, inbound_rng,
            low=cfg.inbound_low, high=cfg.inbound_high, mean=cfg.inbound_mean,
        )
        outbound = sample_rates(
            count, outbound_rng,
            low=cfg.outbound_low, high=cfg.outbound_high, mean=cfg.outbound_mean,
        )
        return [("", float(i), float(o)) for i, o in zip(inbound, outbound)]

    def _add_peer(
        self, node_id: int, profile: Tuple[str, float, float], *, tracked: bool, now: float
    ) -> PeerNode:
        """Create the peer for ``node_id`` (set-up population and churn joiners)."""
        cfg = self.config
        class_name, inbound, outbound = profile
        peer = PeerNode(
            node_id,
            BandwidthProfile(inbound=inbound, outbound=outbound),
            self._algorithm_factory(),
            buffer_capacity=cfg.buffer_capacity,
            play_rate=cfg.play_rate,
            startup_quota_old=cfg.startup_quota_old,
            startup_quota_new=cfg.startup_quota_new,
            tau=cfg.tau,
            lookahead=cfg.lookahead,
            tracked=tracked,
            peer_class=class_name,
            region=self.fabric.region_of(node_id),
        )
        self.peers[node_id] = peer
        self._admit(peer, outbound)
        get_telemetry().probes.funnel.mark(self.label, node_id, "joined", now)
        return peer

    def _admit(self, node: "PeerNode | SourceNode", outbound: float) -> None:
        """The one door every node enters by: upload rate, decider adoption."""
        self._outbound[node.node_id] = outbound
        self._decider.adopt(node)

    def _create_sources(self) -> None:
        """The old source (stops at the switch, time 0) and the new one (starts there)."""
        cfg = self.config
        warmup_simulated = cfg.warmup == "simulated"
        old_segments = (
            int(cfg.warmup_duration * cfg.play_rate)
            if warmup_simulated
            else cfg.old_stream_segments
        )
        self.switch_plan = SwitchPlan.from_old_stream(
            old_segments - 1, startup_quota=cfg.startup_quota_new
        )
        old_start = -cfg.warmup_duration if warmup_simulated else -1.0
        for source_id, stream, first_id, start_time, stop_time in (
            (self.old_source_id, Stream.OLD, 0, old_start, 0.0),
            (self.new_source_id, Stream.NEW, self.switch_plan.id_begin, 0.0, None),
        ):
            spec = StreamSpec(
                stream=stream, source_id=source_id, first_id=first_id, rate=cfg.play_rate
            )
            self.sources[source_id] = source = SourceNode(
                spec,
                outbound_rate=cfg.source_outbound,
                start_time=start_time,
                stop_time=stop_time,
            )
            self._admit(source, cfg.source_outbound)
        if not warmup_simulated:
            self.sources[self.old_source_id].preload(old_segments)

    # ------------------------------------------------------------------ #
    # warm-up
    # ------------------------------------------------------------------ #
    def _analytic_warmup(self) -> None:
        """Seed every peer into the old stream's steady state from hop distances."""
        cfg = self.config
        rng = self.streams.get("warmup")
        hops = self.overlay.hop_distances_from(self.old_source_id)
        max_hops = max(hops.values()) if hops else 1
        id_end = self.switch_plan.id_end

        for node_id, peer in self.peers.items():
            distance = hops.get(node_id, max_hops + 1)
            jitter = 1.0 + cfg.lag_jitter * float(rng.uniform(-1.0, 1.0))
            slow_penalty = max(0.0, cfg.inbound_mean - peer.bandwidth.inbound)
            lag = cfg.lag_per_hop * distance * jitter + cfg.bandwidth_lag_factor * slow_penalty
            lag = int(round(min(max(lag, 0.0), cfg.old_stream_segments * 0.5)))
            head = max(cfg.playback_offset, id_end - lag)
            position = max(0, head - cfg.playback_offset)
            peer.seed_steady_state(
                head_id=head,
                playback_position=position,
                first_old_id=0,
                now=0.0,
            )

    def _announce_switch(self) -> None:
        """The switch instant: the new source learns the plan (it embeds
        ``id_end`` in its data) and every tracked peer's ``Q0`` is recorded."""
        self._land_arrivals(self.now)  # a simulated warm-up's last deliveries
        self.sources[self.new_source_id].announce_switch(self.switch_plan)
        id_end = self.switch_plan.id_end
        for peer in self.peers.values():
            head = peer.highest_known_old if peer.highest_known_old is not None else -1
            missing_ahead = max(0, id_end - head)
            holes = len(peer.buffer.missing_in_range(peer.playback_old.position, min(head, id_end))) \
                if peer.playback_old is not None and head >= 0 else 0
            peer.q0 = missing_ahead + holes

    # ================================================================== #
    # the scheduling period
    # ================================================================== #
    def _round(self, now: float) -> None:
        """One scheduling period: the protocol's fixed sequence, in executed order."""
        self._land_arrivals(now, self.rounds_run + 1)
        self.rounds_run += 1
        state = PeriodState(now, self.rounds_run, self._directive_for(now))
        obs = get_telemetry()
        self._churn_phase(state)
        self._generate_phase(state)
        with obs.span("period.decide", t=now, peers=len(state.order)):
            self._decide_phase(state)
        with obs.span("period.exchange", t=now):
            self._exchange_phase(state)
        with obs.span("period.flush", t=now):
            self._flush_phase(state)
            self._sample_phase(state)

    def _directive_for(self, now: float) -> PeriodDirective:
        """The workload directive for the period ending at ``now``."""
        if now <= 0:
            return _NEUTRAL
        return self._directives.get(round_half_up(now / self.config.tau), _NEUTRAL)

    def _churn_phase(self, state: PeriodState) -> None:
        """Membership change: a scripted correlated failure, then leaves and joins."""
        if state.now <= 0:
            return
        directive = state.directive
        if directive.fail_fraction > 0.0:
            victims = self._failure_cluster(directive.fail_fraction)
            if victims:
                self._remove_and_repair(victims)
        # The churn model plans nothing unless it is enabled or the directive
        # overrides one of its intensities.
        plan = self.churn.plan_round(
            sorted(self.peers),
            leave_fraction=directive.leave_fraction,
            join_fraction=directive.join_fraction,
            leave_count=directive.leave_count,
            join_count=directive.join_count,
        )
        if plan.empty:
            return
        self._remove_and_repair(plan.leavers)
        rng = self.streams.get("join-bandwidth")
        for _ in range(plan.joins):
            self._join(state.now, rng)

    def _generate_phase(self, state: PeriodState) -> None:
        """New segments at the sources, fresh upload budgets, this period's peer order."""
        for source in self.sources.values():
            source.generate_until(state.now)
        self.ledger.reset_period(state.directive.bandwidth_scale)
        state.order = list(self.peers)
        self.streams.get("round-order").shuffle(state.order)

    def _decide_phase(self, state: PeriodState) -> None:
        """Buffer-map pulls and the switch algorithm, by the configured decider.

        Deciding consumes no randomness beyond the fabric's draws for the
        pulls and never mutates neighbour state, which is what lets a
        decider batch it across peers.
        """
        self._decider.decide(self, state)
        self.overhead.add_control(state.control_bits)
        probes = get_telemetry().probes
        if probes.enabled:
            lifecycle = probes.lifecycle
            now, period = state.now, state.index
            for node_id in state.order:
                for _, seg_id, supplier_id, completion in state.request_rows[node_id]:
                    lifecycle.append(now, period, node_id, seg_id, STAGE_REQUESTED)
                    lifecycle.append(now, period, node_id, seg_id, STAGE_ASSIGNED, supplier_id)
                    lifecycle.append(now, period, node_id, seg_id,
                                     STAGE_SCHEDULED, supplier_id, completion)

    def _exchange_phase(self, state: PeriodState) -> None:
        """Execute the requests against the suppliers' budgets and the fabric."""
        now, period = state.now, state.index
        probes = get_telemetry().probes
        requests = failed = delayed = 0
        deliveries, calendar, rows = state.deliveries, self._calendar, state.request_rows
        for node_id in state.order:
            peer = self.peers[node_id]
            peer_rows = rows[node_id]
            requests += len(peer_rows)
            for _, seg_id, supplier_id, _ in peer_rows:
                supplier = self._node(supplier_id)
                if supplier is None or not supplier.buffer.contains(seg_id):
                    dropped = DROP_SUPPLIER_GONE
                elif not self.ledger.consume(supplier_id):
                    dropped = DROP_NO_BUDGET
                else:
                    self.overhead.add_data(DEFAULT_SEGMENT_BITS)
                    delay = self.fabric.data_transfer(supplier_id, node_id)
                    if delay is None:
                        # The segment was lost in flight.  The loss sits on the
                        # large response, not the tiny request, so the
                        # supplier's upload budget and the wire bytes are spent
                        # regardless; the scheduler re-requests the segment
                        # next period (drop + retry).
                        dropped = DROP_NET_LOSS
                    elif delay <= 0.0:
                        deliveries.append((peer, seg_id, supplier_id))
                        continue
                    else:
                        delayed += 1
                        calendar.append(
                            (now + delay, period, delayed, node_id, seg_id, supplier_id, delay)
                        )
                        continue
                peer.record_failed_request()
                failed += 1
                if probes.enabled:
                    probes.lifecycle.append(now, period, node_id, seg_id,
                                            STAGE_DROPPED, supplier_id, dropped)
        self.overhead.add_request(requests * SEGMENT_REQUEST_BITS)
        for peer, seg_id, supplier_id in deliveries:
            self._arrive(peer, seg_id, supplier_id, now, 0.0, probes)
        state.requests, state.failed, state.delayed = requests, failed, delayed
        if requests != len(deliveries) + delayed + failed:
            raise RequestConservationError(
                f"session {self.label!r}, period {period}: {requests} requests but "
                f"{len(deliveries)} delivered + {delayed} delayed + {failed} failed"
            )

    def _flush_phase(self, state: PeriodState) -> None:
        """Advance every peer's playback by one period (and probe what that did)."""
        tau = self.config.tau
        probes = get_telemetry().probes
        peers = [self.peers[node_id] for node_id in state.order]
        before = (
            [(peer._current_playback_id(), peer.total_stalls) for peer in peers]
            if probes.enabled else []
        )
        for peer in peers:
            peer.advance_playback(state.now - tau, tau)
        if not probes.enabled:
            return
        now, period = state.now, state.index
        pending = 0
        for peer, (position, stalls) in zip(peers, before):
            reached = peer._current_playback_id()
            if reached > position:
                probes.lifecycle.append(now, period, peer.node_id, reached,
                                        STAGE_PLAYED, -1, float(reached - position))
            missed = peer.total_stalls - stalls
            if missed > 0:
                probes.lifecycle.append(now, period, peer.node_id, reached,
                                        STAGE_MISSED, -1, float(missed))
            pending += len(peer.wanted_old) + len(peer.wanted_new)
            if peer.discovered_switch_time is not None:
                probes.funnel.mark(self.label, peer.node_id, "first_map",
                                   peer.discovered_switch_time)
            if peer.switch_complete_time is not None:
                probes.funnel.mark(self.label, peer.node_id, "playback",
                                   peer.switch_complete_time)
        probes.health.sample(
            now, self.label, [len(peer.buffer) for peer in peers],
            pending=pending,
            utilisation=self.ledger.utilisation(),
            requests=state.requests,
            failed=state.failed,
            delivered=len(state.deliveries),
        )

    def _sample_phase(self, state: PeriodState) -> None:
        """Close the period's books, sample the metrics, stop when done."""
        now = state.now
        self.ledger.end_period()
        obs = get_telemetry()
        if obs.enabled:
            obs.counter("session.periods").inc()
            obs.counter("fabric.control_pulls").add(state.control_pulls)
            obs.counter("fabric.control_dropped").add(state.control_dropped)
            obs.counter("fabric.requests").add(state.requests)
            obs.counter("fabric.requests_failed").add(state.failed)
            obs.counter("fabric.deliveries_immediate").add(len(state.deliveries))
            obs.counter("fabric.deliveries_delayed").add(state.delayed)
            obs.gauge("session.peers").set(len(self.peers))
        if now >= 0:
            self.overhead.close_period(now)
            if self.config.record_rounds:
                self.collector.sample_round(
                    now, list(self.peers.values()), self._departed_stalls
                )
            self._maybe_stop(now)

    # ------------------------------------------------------------------ #
    # messages
    # ------------------------------------------------------------------ #
    def pull_neighbours(
        self, node_id: int, state: PeriodState
    ) -> Tuple[List["PeerNode | SourceNode"], List[float], int]:
        """Pull one buffer map per current neighbour of ``node_id``.

        The one neighbour walk, whatever the decider: it owns liveness, the
        fabric's control-plane draw (so the draws come in one order) and the
        advertised sending rate, and counts the control traffic on
        ``state``.  On a lossy fabric a pull (or its reply) can be dropped:
        the peer simply schedules this period without that neighbour's map
        and retries at the next period -- pull-based gossip is self-healing.

        Returns the neighbours that answered, their advertised rates and
        the wire size of their maps.
        """
        nodes: List["PeerNode | SourceNode"] = []
        rates: List[float] = []
        dropped = bits = 0
        peer_bits, source_bits = self._map_bits
        send_rates = state.send_rates
        for neighbour_id in self.overlay.neighbours(node_id):
            node = self._node(neighbour_id)
            if node is None:
                continue
            if self.fabric.control_transfer(neighbour_id, node_id) is None:
                dropped += 1
                continue
            rate = send_rates.get(neighbour_id)
            if rate is None:
                rate = send_rates[neighbour_id] = self._estimate_send_rate(neighbour_id)
            nodes.append(node)
            rates.append(rate)
            bits += source_bits if neighbour_id in self.sources else peer_bits
        state.control_pulls += len(nodes)
        state.control_dropped += dropped
        state.control_bits += bits
        return nodes, rates, bits

    def _estimate_send_rate(self, supplier_id: int) -> float:
        outbound = self._outbound.get(supplier_id, 0.0)
        if self.config.supplier_rate_estimate == "full":
            return outbound
        degree = max(1, self.overlay.degree(supplier_id))
        return outbound / degree

    def _node(self, node_id: int):
        """Look up a peer or source by id (``None`` if it has left)."""
        if node_id in self.peers:
            return self.peers[node_id]
        return self.sources.get(node_id)

    def _land_arrivals(self, now: float, index: float = float("inf")) -> None:
        """Apply what :func:`due_arrivals` takes off the calendar, each record at
        its own arrival time; a segment whose receiver has left evaporates."""
        if not self._calendar:
            return
        obs = get_telemetry()
        probes = obs.probes
        due = due_arrivals(self._calendar, now, index)
        arrived = 0
        for arrival, _, _, node_id, seg_id, supplier_id, delay in due:
            peer = self.peers.get(node_id)
            if peer is not None:
                arrived += 1
                self._arrive(peer, seg_id, supplier_id, arrival, delay, probes)
        if obs.enabled:
            obs.counter("fabric.deliveries_arrived").add(arrived)
            obs.counter("fabric.deliveries_evaporated").add(len(due) - arrived)

    def _arrive(
        self, peer: PeerNode, seg_id: int, supplier_id: int, now: float, delay: float,
        probes: "ProbeSet | NullProbeSet",
    ) -> None:
        """``peer`` receives ``seg_id`` at ``now``, ``delay`` seconds after it was sent."""
        peer.apply_delivery(seg_id, now)
        if probes.enabled:
            probes.lifecycle.append(now, self.rounds_run, peer.node_id, seg_id,
                                    STAGE_DELIVERED, supplier_id, delay)
            if seg_id >= self.switch_plan.id_begin:
                probes.funnel.mark(self.label, peer.node_id, "first_segment", now)

    # ------------------------------------------------------------------ #
    # churn and scripted environment changes
    # ------------------------------------------------------------------ #
    def _remove_and_repair(self, victims: Sequence[int]) -> None:
        """Remove ``victims`` and restore their ex-neighbours' minimum degree."""
        affected: List[int] = []
        for victim in victims:
            affected.extend(self._remove_peer(victim))
        # repair() skips the ex-neighbours that were victims themselves
        self.membership.repair(affected)

    def _remove_peer(self, leaver: int) -> List[int]:
        """Remove one peer from every session structure; return its ex-neighbours."""
        affected = self.membership.leave(leaver)
        departed = self.peers.pop(leaver)
        if departed.tracked:
            self._departed.append(departed)
            self._departed_stalls += departed.total_stalls
        self.ledger.remove_node(leaver)
        self._outbound.pop(leaver, None)
        return affected

    def _failure_cluster(self, fraction: float) -> List[int]:
        """The peers of one correlated failure: a connected cluster.

        A random seed peer is drawn and the failure spreads breadth-first
        over current overlay neighbours until ``fraction`` of the peer
        population is covered -- the topological correlation is what
        separates this from the independent-leaver churn model.
        """
        eligible = sorted(self.peers.keys())
        target = min(round_half_up(fraction * len(eligible)), len(eligible))
        if target <= 0:
            return []
        rng = self.streams.get("failure")
        victims: List[int] = []
        queue: deque[int] = deque()
        seen: set[int] = set()
        while len(victims) < target:
            if not queue:
                # (Re)start from a random untouched peer -- covers overlays
                # whose failed cluster is smaller than the target.
                candidates = [n for n in eligible if n not in seen]
                if not candidates:
                    break
                start = int(candidates[int(rng.integers(0, len(candidates)))])
                seen.add(start)
                queue.append(start)
            node_id = queue.popleft()
            victims.append(node_id)
            for neighbour in sorted(self.overlay.neighbours(node_id)):
                if neighbour not in seen and neighbour in self.peers:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return victims

    def _join(self, now: float, rng: np.random.Generator) -> None:
        """One churn joiner: overlay membership, bandwidth, region, fresh playback."""
        info = NodeInfo(
            node_id=self.membership.allocate_node_id(),
            ping_ms=float(rng.uniform(20.0, 300.0)),
            speed_kbps=float(rng.choice([128.0, 768.0, 1500.0])),
        )
        node_id = self.membership.join(info)
        profile = self._draw_profiles(1, rng, rng, rng)[0]
        self.fabric.assign_joiner(
            node_id, region=self._class_region_pin.get(profile[0], "")
        )
        peer = self._add_peer(node_id, profile, tracked=False, now=now)
        self.ledger.add_node(node_id, peer.bandwidth.outbound)
        # A joiner follows its neighbours' current playback point rather than
        # back-filling history (paper, Section 5.4).
        peer.init_fresh_playback(position=self._neighbour_playback_position(node_id))
        peer.q0 = 0

    def _neighbour_playback_position(self, node_id: int) -> int:
        positions: List[int] = []
        for neighbour_id in self.overlay.neighbours(node_id):
            neighbour = self.peers.get(neighbour_id)
            if neighbour is not None and neighbour.playback_old is not None:
                if neighbour.playback_new is not None and neighbour.playback_new.started:
                    positions.append(neighbour.playback_new.position)
                else:
                    positions.append(neighbour.playback_old.position)
        if not positions:
            return self.switch_plan.id_end + 1
        return max(positions)

    # ------------------------------------------------------------------ #
    # termination and results
    # ------------------------------------------------------------------ #
    def _maybe_stop(self, now: float) -> None:
        tracked_alive = [p for p in self.peers.values() if p.tracked]
        if not tracked_alive:
            self._stop_reason = "no tracked peers remain"
        elif not self.config.run_full_horizon and all(p.switch_done for p in tracked_alive):
            self._stop_reason = "all tracked peers switched"
        elif now >= self.config.max_time:
            self._stop_reason = "time horizon reached"

    @property
    def finished(self) -> bool:
        """Whether this session has stopped running periods."""
        return self._stop_reason is not None

    @property
    def _switch_announced(self) -> bool:
        """Whether :meth:`_announce_switch` has run: the new source knows the plan."""
        return self.sources[self.new_source_id].switch_plan is not None

    def _refuse_if_done(self) -> None:
        if self.finished or self._closed:
            raise RuntimeError(
                f"session {self.label!r} is finished or closed and cannot run again"
            )

    def step(self) -> bool:
        """Run the next period, at ``now + tau``; ``False`` once the session has stopped.

        Under a simulated warm-up the switch is announced at time 0, before
        the first period later than 0 (a period landing exactly on 0 still
        runs first).
        """
        self._refuse_if_done()
        now = self.now + self.config.tau
        if not self._switch_announced and now > 0:
            self.now = 0.0
            self._announce_switch()
        self.now = now
        self._round(now)
        return not self.finished

    def run(self) -> SessionResult:
        """Run the periods to the stop, close the session, return the results.

        Only valid once.  A segment still in flight when the run stops is
        dropped: it reached nobody within the run.
        """
        self._refuse_if_done()
        obs = get_telemetry()
        tau, horizon = self.config.tau, self.config.max_time + self.config.tau
        rounds, announced = self.rounds_run, self._switch_announced
        started = _wallclock.perf_counter()
        try:
            with obs.span(
                "session.run",
                label=self.label,
                algorithm=self.config.algorithm,
                engine=self.config.engine,
                n_nodes=self.config.n_nodes,
            ):
                # The span keeps the name the benchmark's layer table reads.
                with obs.span("engine.run", until=horizon):
                    while self.now + tau <= horizon and self.step():
                        pass
                if obs.enabled:
                    obs.counter("engine.events").add(
                        self.rounds_run - rounds + (self._switch_announced != announced)
                    )
            self._wallclock = _wallclock.perf_counter() - started
            return self._finalize()
        finally:
            self.close()

    def close(self) -> None:
        """Mark the session closed and drop the deliveries in flight (idempotent).

        Nothing a caller reads is touched.
        """
        self._closed = True
        self._calendar.clear()

    def _finalize(self) -> SessionResult:
        """The tail of :meth:`run`: the :class:`SessionResult` of the session's state."""
        # Peers that left through churn only contribute if they completed
        # their switch before leaving; peers that departed mid-switch carry
        # no meaningful completion time (the paper's dynamic scenario lets
        # joiners simply follow their neighbours, so the switch-time average
        # is over nodes that actually experienced the whole switch).
        completed_departed = [p for p in self._departed if p.switch_done]
        tracked = [p for p in self.peers.values() if p.tracked] + completed_departed
        metrics = self.collector.finalize(
            tracked,
            algorithm=self.config.algorithm,
            horizon=self.config.max_time,
            overhead_ratio=self.overhead.overhead_ratio(),
        )
        return SessionResult(
            config=self.config,
            metrics=metrics,
            switch_plan=self.switch_plan,
            n_peers=len(tracked),
            n_rounds=self.rounds_run,
            average_degree=self.overlay.average_degree(),
            overhead_ratio=self.overhead.overhead_ratio(),
            overhead_series=self.overhead.ratio_series(),
            wallclock_seconds=self._wallclock,
            stop_reason=self._stop_reason or "queue exhausted",
            fabric_stats=dict(self.fabric.stats()),
        )
