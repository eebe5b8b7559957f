"""The two-source switch session: one full simulation run.

:class:`SwitchSession` assembles the whole system -- overlay, sources,
peers, bandwidth, churn, metrics -- and drives it round by round through the
discrete-event engine:

1. **Setup** (time 0): build the overlay from a (synthetic) trace, augment
   it to the minimum degree ``M``, pick the two source nodes, assign
   bandwidth, create the peers and seed them into the steady state of the
   old stream (analytic warm-up) or run a simulated warm-up.
2. **Rounds** (every ``tau`` seconds): the new source generates segments;
   churn is applied (dynamic scenarios); every peer pulls buffer maps from
   its neighbours (control traffic is charged), runs its switch algorithm
   and issues requests; transfers are executed against the suppliers'
   outbound budgets; playback advances; metrics are sampled.
3. **Stop**: when every tracked peer has completed its source switch or the
   time horizon is reached.

The session is deterministic for a given :class:`SessionConfig` (seed
included), and the *same* seed produces the *same* overlay, bandwidth and
churn schedule for different switch algorithms, so algorithm comparisons
are paired exactly as in the paper.
"""

from __future__ import annotations

import time as _wallclock
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.churn.model import ChurnConfig, ChurnModel
from repro.core.base import ScheduleDecision, Stream, SwitchAlgorithm
from repro.core.fast_switch import FastSwitchAlgorithm
from repro.core.normal_switch import NormalSwitchAlgorithm
from repro.metrics.collectors import MetricsCollector, SwitchMetrics
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
)
from repro.obs.telemetry import NullTelemetry, Telemetry, get_telemetry
from repro.net.library import get_topology, topology_names
from repro.overlay.augment import augment_to_min_degree
from repro.overlay.generator import generate_trace
from repro.overlay.membership import MembershipService
from repro.overlay.topology import NodeInfo, Overlay, build_overlay_from_trace
from repro.sim.clock import round_half_up
from repro.sim.engine import SimulationEngine, StopSimulation
from repro.sim.rng import RandomStreams
from repro.streaming.bandwidth import (
    BandwidthProfile,
    OutboundLedger,
    PeerClass,
    draw_class_indices,
    sample_rates,
)
from repro.streaming.buffermap import BufferMapSnapshot
from repro.streaming.peer import PeerNode
from repro.streaming.protocol import SEGMENT_REQUEST_BITS
from repro.streaming.segment import DEFAULT_SEGMENT_BITS, StreamSpec, SwitchPlan
from repro.streaming.source import SourceNode

__all__ = [
    "SessionConfig",
    "SessionResult",
    "SwitchSession",
    "PeriodDirective",
    "build_session_overlay",
    "ALGORITHM_FACTORIES",
    "ENGINE_NAMES",
    "DEFAULT_ENGINE",
]


#: Registry of algorithm factories by name, used by configs and the CLI.
ALGORITHM_FACTORIES: Dict[str, Callable[[], SwitchAlgorithm]] = {
    "fast": FastSwitchAlgorithm,
    "normal": NormalSwitchAlgorithm,
}

#: Valid values of ``SessionConfig.engine`` (see :mod:`repro.core.vector`).
ENGINE_NAMES: Tuple[str, ...] = ("oracle", "vector")

#: The engine a session runs on unless its config (or ``--engine``) says
#: otherwise.  The array engine executes; the per-peer object engine stays
#: selectable as the readable reference the differential suite compares it
#: against.  Runner, workloads, universe shards, report sweeps and the CLI
#: all inherit this one name.
DEFAULT_ENGINE: str = "vector"


@dataclass(frozen=True)
class PeriodDirective:
    """Environment overrides for one scheduling period.

    The time-scripted workload engine (:mod:`repro.workloads`) compiles a
    workload specification into a map from period index (1-based, period
    ``k`` ends at time ``k * tau``) to directives; the session applies them
    as the round executes.  Everything stays deterministic: directives are
    plain data and the random draws they trigger come from the session's
    named streams.

    Attributes
    ----------
    leave_fraction / join_fraction:
        Override the churn intensities for this period only (``None`` keeps
        the configured model; a value activates churn even when the
        configured model is disabled -- a churn burst over a static
        baseline).
    leave_count / join_count:
        Exact membership-change counts for this period, winning over the
        fractions.  The channel-zapping universe compiles its per-channel
        arrival/departure schedules into counts, so every mesh executes
        precisely the scripted number of joins and leaves.
    bandwidth_scale:
        Multiplies every node's outbound budget for this period (congestion
        regimes; 1.0 is neutral).
    fail_fraction:
        Fraction of current peers removed as one *correlated* failure: a
        random peer and its overlay vicinity (breadth-first) fail together,
        modelling a crashed access network rather than independent churn.
    phase:
        Name of the workload phase this directive belongs to (bookkeeping
        only).
    """

    leave_fraction: Optional[float] = None
    join_fraction: Optional[float] = None
    leave_count: Optional[int] = None
    join_count: Optional[int] = None
    bandwidth_scale: float = 1.0
    fail_fraction: float = 0.0
    phase: str = ""

    def __post_init__(self) -> None:
        for name in ("leave_fraction", "join_fraction"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("leave_count", "join_count"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.bandwidth_scale <= 0:
            raise ValueError(
                f"bandwidth_scale must be positive, got {self.bandwidth_scale}"
            )
        if not (0.0 <= self.fail_fraction <= 1.0):
            raise ValueError(f"fail_fraction must be in [0, 1], got {self.fail_fraction}")

    @property
    def is_neutral(self) -> bool:
        """Whether this directive changes nothing (safe to omit from maps)."""
        return (
            self.leave_fraction is None
            and self.join_fraction is None
            and self.leave_count is None
            and self.join_count is None
            and self.bandwidth_scale == 1.0
            and self.fail_fraction == 0.0
        )


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


@dataclass(frozen=True)
class SessionConfig:
    """Full configuration of one simulation run.

    Defaults follow Section 5.1 of the paper; the network size defaults to a
    laptop-friendly 200 peers (the experiment sweeps override it).

    Attributes
    ----------
    n_nodes:
        Overlay size (including the two sources).
    seed:
        Root random seed (controls overlay, bandwidth, churn, ordering).
    algorithm:
        Which switch algorithm to use: a key of :data:`ALGORITHM_FACTORIES`.
    min_degree:
        ``M``: minimum number of neighbours per node (paper: 5).
    play_rate:
        ``p``: segments played/generated per second (paper: 10).
    buffer_capacity:
        ``B``: per-peer FIFO buffer capacity in segments (paper: 600).
    tau:
        Data scheduling period in seconds (paper: 1.0).
    startup_quota_old:
        ``Q``: consecutive segments to (re)start old-stream playback
        (paper: 10).
    startup_quota_new:
        ``Qs``: startup segments of the new stream (paper: 50).
    inbound_low / inbound_high / inbound_mean:
        Parameters of the inbound rate distribution in segments/second
        (paper: 10--33 averaging 15).
    outbound_low / outbound_high / outbound_mean:
        Same for the outbound rates ("alike" in the paper).
    source_outbound:
        Outbound rate of each source node (segments/second); the paper only
        says "much larger" -- the default is 4x the mean peer outbound rate.
    old_stream_segments:
        Number of segments the old source produced before the switch
        (analytic warm-up only; the simulated warm-up derives it from the
        warm-up duration).
    warmup:
        ``"analytic"`` (seed peers from hop distances, default) or
        ``"simulated"`` (actually stream the old source for
        ``warmup_duration`` seconds before the switch).
    warmup_duration:
        Length of the simulated warm-up in seconds.
    lag_per_hop:
        Analytic warm-up: average backlog (segments) added per overlay hop
        from the old source.  Pull-based meshes of the CoolStreaming family
        typically run one to a few scheduling periods behind the live edge
        per overlay hop; the default of 20 segments (2 seconds of content)
        per hop reproduces the paper's finishing-time magnitudes.
    lag_jitter:
        Analytic warm-up: relative jitter applied to the per-peer lag.
    bandwidth_lag_factor:
        Analytic warm-up: extra backlog per missing segment/second of
        inbound rate below the mean (slow peers run further behind).
    playback_offset:
        Analytic warm-up: distance (segments) between a peer's newest
        buffered segment and its playback position at the switch instant.
    lookahead:
        How far (segments) beyond the playback position peers advertise
        interest before they know where the old stream ends.
    max_time:
        Simulation horizon in seconds after the switch.
    churn:
        Churn configuration (disabled for the static experiments).
    supplier_rate_estimate:
        ``"full"`` (default): a neighbour advertises its whole outbound
        rate as its sending rate ``R(j)``, exactly as Algorithm 1 assumes;
        actual contention is resolved by the supplier-side outbound ledger.
        ``"fair_share"``: advertise ``outbound / degree`` instead (a more
        conservative estimator provided for sensitivity analysis).
    trace_mean_degree:
        Mean crawled degree of the synthetic bootstrap trace.
    record_rounds:
        Whether to keep the per-round time series (disable for large
        parameter sweeps to save memory).
    peer_classes:
        Optional heterogeneous bandwidth classes (ADSL/cable/fiber ...).
        When non-empty, every peer (and every churn joiner) is assigned a
        class -- weighted by the class fractions -- and samples its rates
        from that class's distribution instead of the global
        ``inbound_*``/``outbound_*`` parameters.
    run_full_horizon:
        When true the session runs to ``max_time`` even after every tracked
        peer has switched.  The workload engine needs this so post-switch
        phases (churn bursts, congestion windows) still execute and their
        QoE is measured.
    engine:
        Which execution engine drives the per-period inner loop; one of
        :data:`ENGINE_NAMES`, defaulting to :data:`DEFAULT_ENGINE`.
        ``"vector"`` is the NumPy struct-of-arrays engine in
        :mod:`repro.core.vector` (the production path); ``"oracle"`` is the
        per-peer object engine, the readable reference and the debugging
        path.  Both produce bit-identical results, verified by the
        differential suite in ``tests/test_vector_equivalence.py``, so the
        choice is an execution detail: it never enters result fingerprints
        or stored documents.
    topology:
        Name of a library network topology (:mod:`repro.net.library`).
        Empty (the default) runs on the zero-latency, lossless
        :class:`~repro.net.fabric.IdealFabric` -- the paper's implicit
        model, bit-identical to the pre-network-layer simulator.  A named
        topology runs on a :class:`~repro.net.fabric.LatencyFabric`:
        peers are assigned to regions, buffer-map pulls and segment
        requests can be lost (and are retried the next period), and
        segment deliveries arrive after a sampled propagation delay.
    """

    n_nodes: int = 200
    seed: int = 0
    algorithm: str = "fast"
    min_degree: int = 5
    play_rate: float = 10.0
    buffer_capacity: int = 600
    tau: float = 1.0
    startup_quota_old: int = 10
    startup_quota_new: int = 50
    inbound_low: float = 10.0
    inbound_high: float = 33.0
    inbound_mean: float = 15.0
    outbound_low: float = 10.0
    outbound_high: float = 33.0
    outbound_mean: float = 15.0
    source_outbound: float = 60.0
    old_stream_segments: int = 900
    warmup: str = "analytic"
    warmup_duration: float = 30.0
    lag_per_hop: float = 20.0
    lag_jitter: float = 0.35
    bandwidth_lag_factor: float = 3.0
    playback_offset: int = 30
    lookahead: int = 200
    max_time: float = 150.0
    churn: ChurnConfig = field(default_factory=ChurnConfig.disabled)
    supplier_rate_estimate: str = "full"
    trace_mean_degree: float = 2.0
    record_rounds: bool = True
    peer_classes: Tuple[PeerClass, ...] = ()
    run_full_horizon: bool = False
    topology: str = ""
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {sorted(ENGINE_NAMES)}"
            )
        if self.topology and self.topology not in topology_names():
            raise ValueError(
                f"unknown topology {self.topology!r}; known: {topology_names()}"
            )
        if self.n_nodes < self.min_degree + 2:
            raise ValueError(
                f"need at least min_degree + 2 = {self.min_degree + 2} nodes, got {self.n_nodes}"
            )
        if self.algorithm not in ALGORITHM_FACTORIES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {sorted(ALGORITHM_FACTORIES)}"
            )
        if self.warmup not in ("analytic", "simulated"):
            raise ValueError(f"warmup must be 'analytic' or 'simulated', got {self.warmup!r}")
        if self.supplier_rate_estimate not in ("fair_share", "full"):
            raise ValueError(
                "supplier_rate_estimate must be 'fair_share' or 'full', "
                f"got {self.supplier_rate_estimate!r}"
            )
        if self.old_stream_segments <= self.startup_quota_old:
            raise ValueError("old_stream_segments must exceed startup_quota_old")
        if self.max_time <= 0 or self.tau <= 0:
            raise ValueError("max_time and tau must be positive")
        if not isinstance(self.peer_classes, tuple):
            object.__setattr__(self, "peer_classes", tuple(self.peer_classes))
        names = [cls.name for cls in self.peer_classes]
        if len(set(names)) != len(names):
            raise ValueError(f"peer class names must be unique, got {names}")

    def with_algorithm(self, algorithm: str) -> "SessionConfig":
        """A copy of this config running a different switch algorithm."""
        return replace(self, algorithm=algorithm)

    def make_algorithm(self) -> SwitchAlgorithm:
        """Instantiate the configured switch algorithm."""
        return ALGORITHM_FACTORIES[self.algorithm]()


@dataclass
class SessionResult:
    """Everything a benchmark or example needs from one run."""

    config: SessionConfig
    metrics: SwitchMetrics
    switch_plan: SwitchPlan
    n_peers: int
    n_rounds: int
    average_degree: float
    overhead_ratio: float
    overhead_series: List[Tuple[float, float]]
    wallclock_seconds: float
    stop_reason: str
    fabric_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def algorithm(self) -> str:
        """Name of the switch algorithm that produced this result."""
        return self.metrics.algorithm


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
    engine:
        A *shared* :class:`~repro.sim.engine.SimulationEngine` to attach to.
        When given, the session schedules its rounds on that engine but does
        not drive it: a finished session quietly retires its periodic
        process instead of stopping the engine, so many independent channel
        meshes can run interleaved on one clock (the multi-channel
        universe).  The owner runs the engine and calls :meth:`finalize` on
        each session.  Shared sessions require the analytic warm-up (a
        shared clock starts at 0).
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

    def __new__(cls, config: Optional[SessionConfig] = None, *args, **kwargs):
        # Dispatch on the configured execution engine so every construction
        # site -- runner, workloads, universe -- picks up the vector engine
        # through the config alone.  Subclasses (the vector engine itself)
        # bypass the dispatch.
        if (
            cls is SwitchSession
            and config is not None
            and getattr(config, "engine", DEFAULT_ENGINE) == "vector"
        ):
            from repro.core.vector import VectorSwitchSession

            return super().__new__(VectorSwitchSession)
        return super().__new__(cls)

    def __init__(
        self,
        config: SessionConfig,
        *,
        algorithm_factory: Optional[Callable[[], SwitchAlgorithm]] = None,
        overlay: Optional[Overlay] = None,
        directives: Optional[Mapping[int, PeriodDirective]] = None,
        engine: Optional[SimulationEngine] = None,
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
        self.streams = RandomStreams(config.seed)
        if fabric is not None:
            self.fabric = fabric
        else:
            topology = get_topology(config.topology) if config.topology else None
            self.fabric = build_fabric(
                topology, self.streams.get("net") if topology else None
            )
        self._owns_engine = engine is None
        if engine is not None and config.warmup == "simulated":
            raise ValueError(
                "a session on a shared engine requires the analytic warm-up"
            )
        self.engine = engine if engine is not None else SimulationEngine(
            start_time=-config.warmup_duration if config.warmup == "simulated" else 0.0
        )
        #: region pin per bandwidth-class name (classes without a pin omitted)
        self._class_region_pin: Dict[str, str] = {
            cls.name: cls.region for cls in config.peer_classes if cls.region
        }
        self._stop_reason: Optional[str] = None
        self._wallclock = 0.0
        self.overlay = overlay.copy() if overlay is not None else self._build_overlay()
        self.peers: Dict[int, PeerNode] = {}
        self.sources: Dict[int, SourceNode] = {}
        self._departed: List[PeerNode] = []
        self._departed_stalls = 0
        self._outbound: Dict[int, float] = {}
        self._inbound: Dict[int, float] = {}
        self._peer_class: Dict[int, str] = {}
        self.overhead = OverheadAccountant()
        self.collector = MetricsCollector(config.startup_quota_new)
        self.rounds_run = 0
        self._switch_announced = False
        self._setup()

    # ================================================================== #
    # construction
    # ================================================================== #
    def _build_overlay(self) -> Overlay:
        cfg = self.config
        return build_session_overlay(
            cfg.n_nodes,
            cfg.seed,
            min_degree=cfg.min_degree,
            trace_mean_degree=cfg.trace_mean_degree,
        )

    def _setup(self) -> None:
        cfg = self.config
        rng = self.streams.get("setup")

        self.old_source_id, self.new_source_id = self._choose_sources(rng)
        self._assign_bandwidth()
        self._assign_regions()
        self._create_sources()
        self._create_peers()

        protected = frozenset({self.old_source_id, self.new_source_id})
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
            self._record_initial_backlog()
        else:
            self._prepare_simulated_warmup()

        self.collector.sample_round(
            max(self.engine.now, 0.0), list(self.peers.values()), self._departed_stalls
        )
        self._periodic = self.engine.schedule_periodic(
            cfg.tau,
            self._round,
            start=self.engine.now + cfg.tau,
            label=f"scheduling-round:{self.label}" if self.label else "scheduling-round",
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

    def _assign_bandwidth(self) -> None:
        cfg = self.config
        node_ids = self.overlay.node_ids
        peer_ids = [n for n in node_ids if n not in (self.old_source_id, self.new_source_id)]
        if cfg.peer_classes:
            class_indices = draw_class_indices(
                len(peer_ids), cfg.peer_classes, self.streams.get("peer-class")
            )
            inbound_rng = self.streams.get("inbound")
            outbound_rng = self.streams.get("outbound")
            for idx, node_id in enumerate(peer_ids):
                peer_class = cfg.peer_classes[int(class_indices[idx])]
                self._peer_class[node_id] = peer_class.name
                self._inbound[node_id] = peer_class.sample_inbound(inbound_rng)
                self._outbound[node_id] = peer_class.sample_outbound(outbound_rng)
        else:
            inbound = sample_rates(
                len(peer_ids),
                self.streams.get("inbound"),
                low=cfg.inbound_low,
                high=cfg.inbound_high,
                mean=cfg.inbound_mean,
            )
            outbound = sample_rates(
                len(peer_ids),
                self.streams.get("outbound"),
                low=cfg.outbound_low,
                high=cfg.outbound_high,
                mean=cfg.outbound_mean,
            )
            for idx, node_id in enumerate(peer_ids):
                self._inbound[node_id] = float(inbound[idx])
                self._outbound[node_id] = float(outbound[idx])
        for source_id in (self.old_source_id, self.new_source_id):
            self._inbound[source_id] = 0.0
            self._outbound[source_id] = cfg.source_outbound

    def _assign_regions(self) -> None:
        """Place every node (sources included) on the fabric's regions.

        Peer classes that pin a region (``PeerClass.region``) override the
        topology's weighted-random draw for their members; the draw is
        still consumed for every node, so pinning one class never perturbs
        the other nodes' placement.  The ideal fabric ignores all of this.
        """
        pinned: Dict[int, str] = {}
        if self._class_region_pin and self.fabric.topology is not None:
            for node_id, class_name in self._peer_class.items():
                region = self._class_region_pin.get(class_name, "")
                if region:
                    pinned[node_id] = region
        self.fabric.assign_regions(self.overlay.node_ids, pinned)

    def _create_sources(self) -> None:
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
        old_spec = StreamSpec(
            stream=Stream.OLD,
            source_id=self.old_source_id,
            first_id=0,
            rate=cfg.play_rate,
        )
        new_spec = StreamSpec(
            stream=Stream.NEW,
            source_id=self.new_source_id,
            first_id=self.switch_plan.id_begin,
            rate=cfg.play_rate,
        )
        old_source = SourceNode(
            old_spec,
            outbound_rate=cfg.source_outbound,
            start_time=-cfg.warmup_duration if warmup_simulated else -1.0,
            stop_time=0.0,
        )
        if not warmup_simulated:
            old_source.preload(old_segments)
        new_source = SourceNode(
            new_spec,
            outbound_rate=cfg.source_outbound,
            start_time=0.0,
            stop_time=None,
        )
        self.sources = {self.old_source_id: old_source, self.new_source_id: new_source}

    def _create_peers(self) -> None:
        cfg = self.config
        for node_id in self.overlay.node_ids:
            if node_id in self.sources:
                continue
            profile = BandwidthProfile(
                inbound=self._inbound[node_id], outbound=self._outbound[node_id]
            )
            self.peers[node_id] = PeerNode(
                node_id,
                profile,
                self._algorithm_factory(),
                buffer_capacity=cfg.buffer_capacity,
                play_rate=cfg.play_rate,
                startup_quota_old=cfg.startup_quota_old,
                startup_quota_new=cfg.startup_quota_new,
                tau=cfg.tau,
                lookahead=cfg.lookahead,
                tracked=True,
                peer_class=self._peer_class.get(node_id, ""),
                region=self.fabric.region_of(node_id),
            )
        probes = get_telemetry().probes
        if probes.enabled:
            for node_id in self.peers:
                probes.funnel.mark(self.label, node_id, "joined", 0.0)

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

    def _record_initial_backlog(self) -> None:
        """Record each tracked peer's ``Q0`` at the switch instant."""
        id_end = self.switch_plan.id_end
        for peer in self.peers.values():
            head = peer.highest_known_old if peer.highest_known_old is not None else -1
            missing_ahead = max(0, id_end - head)
            holes = len(peer.buffer.missing_in_range(peer.playback_old.position, min(head, id_end))) \
                if peer.playback_old is not None and head >= 0 else 0
            peer.q0 = missing_ahead + holes

    def _prepare_simulated_warmup(self) -> None:
        """Initialise peers for a simulated warm-up starting before time 0."""
        for peer in self.peers.values():
            peer.init_fresh_playback(position=0)
        # The switch is announced (and Q0 recorded) by an event at time 0,
        # after the last warm-up round has executed.
        self.engine.schedule(0.0, self._finish_simulated_warmup, priority=10,
                             label="finish-warmup")

    def _finish_simulated_warmup(self) -> None:
        self._announce_switch()
        self._record_initial_backlog()

    def _announce_switch(self) -> None:
        """Give the new source its announcement (it embeds ``id_end`` in its data)."""
        self.sources[self.new_source_id].announce_switch(self.switch_plan)
        self._switch_announced = True

    # ================================================================== #
    # the scheduling round
    # ================================================================== #
    def _round(self, now: float) -> None:
        cfg = self.config
        self.rounds_run += 1
        directive = self._directive_for(now)

        if now > 0:
            if directive is not None and directive.fail_fraction > 0.0:
                self._apply_correlated_failure(directive.fail_fraction)
            leave = directive.leave_fraction if directive is not None else None
            join = directive.join_fraction if directive is not None else None
            leave_n = directive.leave_count if directive is not None else None
            join_n = directive.join_count if directive is not None else None
            if (
                cfg.churn.enabled
                or leave is not None or join is not None
                or leave_n is not None or join_n is not None
            ):
                self._apply_churn(
                    now,
                    leave_fraction=leave,
                    join_fraction=join,
                    leave_count=leave_n,
                    join_count=join_n,
                )

        for source in self.sources.values():
            source.generate_until(now)

        self.ledger.reset_period(
            directive.bandwidth_scale if directive is not None else 1.0
        )
        order = list(self.peers.keys())
        self.streams.get("round-order").shuffle(order)

        obs = get_telemetry()
        with obs.span("period.decide", t=now, peers=len(order)):
            decisions = self._decide_phase(order, now)

        probes = obs.probes
        probing = probes.enabled
        lifecycle = probes.lifecycle
        period = self.rounds_run
        requests = failed = delayed = 0
        deliveries: List[Tuple[PeerNode, int, int]] = []
        with obs.span("period.exchange", t=now):
            for node_id in order:
                peer = self.peers[node_id]
                for request in decisions[node_id].requests:
                    requests += 1
                    self.overhead.add_request(SEGMENT_REQUEST_BITS)
                    supplier = self._node(request.supplier_id)
                    if supplier is None or not supplier.buffer.contains(request.seg_id):
                        peer.record_failed_request()
                        failed += 1
                        if probing:
                            lifecycle.append(now, period, node_id, request.seg_id,
                                             STAGE_DROPPED, request.supplier_id,
                                             DROP_SUPPLIER_GONE)
                        continue
                    if not self.ledger.consume(request.supplier_id):
                        peer.record_failed_request()
                        failed += 1
                        if probing:
                            lifecycle.append(now, period, node_id, request.seg_id,
                                             STAGE_DROPPED, request.supplier_id,
                                             DROP_NO_BUDGET)
                        continue
                    self.overhead.add_data(DEFAULT_SEGMENT_BITS)
                    delay = self.fabric.data_transfer(request.supplier_id, peer.node_id)
                    if delay is None:
                        # The segment was lost in flight.  The loss sits on the
                        # large response, not the tiny request, so the
                        # supplier's upload budget and the wire bytes are spent
                        # regardless; the scheduler re-requests the segment
                        # next period (drop + retry).
                        peer.record_failed_request()
                        failed += 1
                        if probing:
                            lifecycle.append(now, period, node_id, request.seg_id,
                                             STAGE_DROPPED, request.supplier_id,
                                             DROP_NET_LOSS)
                        continue
                    if delay <= 0.0:
                        deliveries.append((peer, request.seg_id, request.supplier_id))
                    else:
                        delayed += 1
                        self._schedule_delivery(
                            peer.node_id, request.seg_id, delay,
                            supplier_id=request.supplier_id,
                        )

            for peer, seg_id, supplier_id in deliveries:
                peer.apply_delivery(seg_id, now)
                if probing:
                    lifecycle.append(now, period, peer.node_id, seg_id,
                                     STAGE_DELIVERED, supplier_id)
                    if seg_id >= self.switch_plan.id_begin:
                        probes.funnel.mark(self.label, peer.node_id,
                                           "first_segment", now)

        with obs.span("period.flush", t=now):
            for node_id in order:
                peer = self.peers[node_id]
                if probing:
                    pos_before = peer._current_playback_id()
                    stalls_before = peer.total_stalls
                peer.advance_playback(now - cfg.tau, cfg.tau)
                if probing:
                    pos_after = peer._current_playback_id()
                    played = pos_after - pos_before
                    if played > 0:
                        lifecycle.append(now, period, node_id, pos_after,
                                         STAGE_PLAYED, -1, float(played))
                    missed = peer.total_stalls - stalls_before
                    if missed > 0:
                        lifecycle.append(now, period, node_id, pos_after,
                                         STAGE_MISSED, -1, float(missed))

            if probing:
                funnel = probes.funnel
                fills: List[int] = []
                pending = 0
                for node_id in order:
                    peer = self.peers.get(node_id)
                    if peer is None:
                        continue
                    fills.append(len(peer.buffer))
                    pending += len(peer.wanted_old) + len(peer.wanted_new)
                    if peer.discovered_switch_time is not None:
                        funnel.mark(self.label, node_id, "first_map",
                                    peer.discovered_switch_time)
                    if peer.switch_complete_time is not None:
                        funnel.mark(self.label, node_id, "playback",
                                    peer.switch_complete_time)
                probes.health.sample(
                    now, self.label, fills,
                    pending=pending,
                    utilisation=self.ledger.utilisation(),
                    requests=requests,
                    failed=failed,
                    delivered=len(deliveries),
                )

            self.ledger.end_period()
            if obs.enabled:
                obs.counter("session.periods").inc()
                obs.counter("fabric.requests").add(requests)
                obs.counter("fabric.requests_failed").add(failed)
                obs.counter("fabric.deliveries_immediate").add(len(deliveries))
                obs.counter("fabric.deliveries_delayed").add(delayed)
                obs.gauge("session.peers").set(len(self.peers))
            if now >= 0:
                self.overhead.close_period(now)
                if cfg.record_rounds:
                    self.collector.sample_round(
                        now, list(self.peers.values()), self._departed_stalls
                    )
                self._maybe_stop(now)

    def _decide_phase(self, order: Sequence[int], now: float) -> Dict[int, ScheduleDecision]:
        """Run every peer's buffer-map pull + scheduling decision for one round.

        The decide phase consumes no randomness beyond the fabric's
        control-transfer draws and never mutates neighbour state, so the
        vector engine (:mod:`repro.core.vector`) overrides exactly this
        method with an array-native equivalent.
        """
        decisions: Dict[int, ScheduleDecision] = {}
        obs = get_telemetry()
        lifecycle = obs.probes.lifecycle
        probing = obs.probes.enabled
        period = self.rounds_run
        # Churn only runs before the phase, so a supplier's advertised rate
        # is one value for all of its neighbours' pulls this period.
        send_rates: Dict[int, float] = {}
        for node_id in order:
            peer = self.peers[node_id]
            snapshots = self._pull_buffer_maps(peer, send_rates, obs)
            decision = peer.decide(snapshots, now)
            decisions[node_id] = decision
            if probing:
                for request in decision.requests:
                    lifecycle.append(now, period, node_id, request.seg_id,
                                     STAGE_REQUESTED)
                    lifecycle.append(now, period, node_id, request.seg_id,
                                     STAGE_ASSIGNED, request.supplier_id)
                    lifecycle.append(now, period, node_id, request.seg_id,
                                     STAGE_SCHEDULED, request.supplier_id,
                                     request.expected_receive_time)
        if obs.enabled:
            obs.counter("engine.dispatch.scalar").add(len(order))
        return decisions

    def _schedule_delivery(
        self, node_id: int, seg_id: int, delay: float, *, supplier_id: int = -1
    ) -> None:
        """Deliver ``seg_id`` to ``node_id`` after the network delay."""
        self.engine.schedule_in(
            delay,
            partial(self._deliver, node_id, seg_id, supplier_id, delay),
            label="net-delivery",
        )

    def _deliver(self, node_id: int, seg_id: int, supplier_id: int, delay: float) -> None:
        """A delayed segment arrives (the engine event behind a delivery).

        The receiving peer may have left through churn by the arrival time,
        in which case the segment evaporates with it.
        """
        peer = self.peers.get(node_id)
        if peer is None:
            return
        arrival = self.engine.now
        peer.apply_delivery(seg_id, arrival)
        probes = get_telemetry().probes
        if probes.enabled:
            probes.lifecycle.append(arrival, self.rounds_run, node_id, seg_id,
                                    STAGE_DELIVERED, supplier_id, delay)
            if seg_id >= self.switch_plan.id_begin:
                probes.funnel.mark(self.label, node_id, "first_segment", arrival)

    def _pull_buffer_maps(
        self,
        peer: PeerNode,
        send_rates: Dict[int, float],
        obs: "Telemetry | NullTelemetry",
    ) -> List[BufferMapSnapshot]:
        """Pull one buffer map per current neighbour (charging control traffic).

        On a lossy fabric a pull (or its reply) can be dropped: the peer
        simply schedules this period without that neighbour's map and
        retries at the next period -- pull-based gossip is self-healing.

        ``send_rates`` memoises each supplier's advertised rate and ``obs``
        is the telemetry handle; both live for one decide phase.
        """
        windows = peer.interest_windows()
        snapshots: List[BufferMapSnapshot] = []
        dropped = 0
        for neighbour_id in self.overlay.neighbours(peer.node_id):
            node = self._node(neighbour_id)
            if node is None:
                continue
            if self.fabric.control_transfer(neighbour_id, peer.node_id) is None:
                dropped += 1
                continue
            send_rate = send_rates.get(neighbour_id)
            if send_rate is None:
                send_rate = send_rates[neighbour_id] = self._estimate_send_rate(neighbour_id)
            snapshot = node.snapshot_for(windows, send_rate=send_rate)
            self.overhead.add_control(snapshot.wire_bits)
            snapshots.append(snapshot)
        if obs.enabled:
            obs.counter("fabric.control_pulls").add(len(snapshots))
            obs.counter("fabric.control_dropped").add(dropped)
        return snapshots

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

    # ------------------------------------------------------------------ #
    # churn and scripted environment changes
    # ------------------------------------------------------------------ #
    def _directive_for(self, now: float) -> Optional[PeriodDirective]:
        """The workload directive for the period ending at ``now`` (if any)."""
        if not self._directives or now <= 0:
            return None
        period = round_half_up(now / self.config.tau)
        return self._directives.get(period)

    def _apply_churn(
        self,
        now: float,
        *,
        leave_fraction: Optional[float] = None,
        join_fraction: Optional[float] = None,
        leave_count: Optional[int] = None,
        join_count: Optional[int] = None,
    ) -> None:
        eligible = sorted(self.peers.keys())
        plan = self.churn.plan_round(
            eligible,
            leave_fraction=leave_fraction,
            join_fraction=join_fraction,
            leave_count=leave_count,
            join_count=join_count,
        )
        if plan.empty:
            return
        affected: List[int] = []
        for leaver in plan.leavers:
            if leaver not in self.peers:
                continue
            affected.extend(self._remove_peer(leaver))
        self.membership.repair([n for n in affected if n in self.overlay])

        rng = self.streams.get("join-bandwidth")
        for _ in range(plan.joins):
            self._create_joiner(now, rng)

    def _remove_peer(self, leaver: int) -> List[int]:
        """Remove one peer from every session structure; return its ex-neighbours."""
        affected = self.membership.leave(leaver)
        departed = self.peers.pop(leaver)
        if departed.tracked:
            self._departed.append(departed)
            self._departed_stalls += departed.total_stalls
        self.ledger.remove_node(leaver)
        self._outbound.pop(leaver, None)
        self._inbound.pop(leaver, None)
        self._peer_class.pop(leaver, None)
        return affected

    def _apply_correlated_failure(self, fraction: float) -> None:
        """Fail a connected cluster of peers together (one correlated event).

        A random seed peer is drawn and the failure spreads breadth-first
        over current overlay neighbours until ``fraction`` of the peer
        population is gone -- the topological correlation is what separates
        this from the independent-leaver churn model.
        """
        eligible = sorted(self.peers.keys())
        target = min(round_half_up(fraction * len(eligible)), len(eligible))
        if target <= 0:
            return
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
        affected: List[int] = []
        for victim in victims:
            if victim in self.peers:
                affected.extend(self._remove_peer(victim))
        self.membership.repair([n for n in affected if n in self.overlay])

    def _create_joiner(self, now: float, rng: np.random.Generator) -> None:
        cfg = self.config
        info = NodeInfo(
            node_id=self.membership.allocate_node_id(),
            ping_ms=float(rng.uniform(20.0, 300.0)),
            speed_kbps=float(rng.choice([128.0, 768.0, 1500.0])),
        )
        node_id = self.membership.join(info)
        class_name = ""
        if cfg.peer_classes:
            index = int(draw_class_indices(1, cfg.peer_classes, rng)[0])
            peer_class = cfg.peer_classes[index]
            class_name = peer_class.name
            inbound = peer_class.sample_inbound(rng)
            outbound = peer_class.sample_outbound(rng)
        else:
            inbound = float(
                sample_rates(1, rng, low=cfg.inbound_low, high=cfg.inbound_high, mean=cfg.inbound_mean)[0]
            )
            outbound = float(
                sample_rates(1, rng, low=cfg.outbound_low, high=cfg.outbound_high, mean=cfg.outbound_mean)[0]
            )
        self._inbound[node_id] = inbound
        self._outbound[node_id] = outbound
        self._peer_class[node_id] = class_name
        self.ledger.add_node(node_id, outbound)
        pinned_region = ""
        if self.fabric.topology is not None:
            pinned_region = self._class_region_pin.get(class_name, "")
        self.fabric.assign_joiner(node_id, region=pinned_region)

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
            tracked=False,
            peer_class=class_name,
            region=self.fabric.region_of(node_id),
        )
        # A joiner follows its neighbours' current playback point rather than
        # back-filling history (paper, Section 5.4).
        position = self._neighbour_playback_position(node_id)
        peer.init_fresh_playback(position=position)
        peer.q0 = 0
        self.peers[node_id] = peer
        probes = get_telemetry().probes
        if probes.enabled:
            probes.funnel.mark(self.label, node_id, "joined", now)

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
        reason: Optional[str] = None
        tracked_alive = [p for p in self.peers.values() if p.tracked]
        if not tracked_alive:
            reason = "no tracked peers remain"
        elif not self.config.run_full_horizon and all(p.switch_done for p in tracked_alive):
            reason = "all tracked peers switched"
        elif now >= self.config.max_time:
            reason = "time horizon reached"
        if reason is None:
            return
        self._stop_reason = reason
        if self._owns_engine:
            raise StopSimulation(reason)
        # On a shared engine the session only retires itself: other channel
        # meshes keep running on the same clock.
        self._periodic.stop()

    @property
    def finished(self) -> bool:
        """Whether this session has stopped scheduling rounds."""
        return self._stop_reason is not None

    def run(self) -> SessionResult:
        """Run the simulation to completion and return the results.

        Only valid for a session that owns its engine; sessions attached to
        a shared engine are driven by their owner, which then collects each
        session's result through :meth:`finalize`.
        """
        if not self._owns_engine:
            raise RuntimeError(
                "session runs on a shared engine; run that engine and call finalize()"
            )
        started = _wallclock.perf_counter()
        with get_telemetry().span(
            "session.run",
            label=self.label,
            algorithm=self.config.algorithm,
            engine=self.config.engine,
            n_nodes=self.config.n_nodes,
        ):
            self.engine.run_until(self.config.max_time + self.config.tau)
        self._wallclock = _wallclock.perf_counter() - started
        return self.finalize()

    def finalize(self) -> SessionResult:
        """Build the :class:`SessionResult` from the session's current state."""
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


def run_session(config: SessionConfig) -> SessionResult:
    """Convenience one-liner: build and run a session for ``config``."""
    return SwitchSession(config).run()
