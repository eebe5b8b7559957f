"""The records of a switch session: what configures a run and what it returns.

:class:`SessionConfig` (with :data:`ALGORITHM_FACTORIES`, :data:`ENGINE_NAMES`
and :data:`DEFAULT_ENGINE`, which it validates against), the bandwidth
:class:`PeerClass` it draws peers from, the per-period
:class:`PeriodDirective` and :class:`SessionResult` are plain data.  The
experiment configurations, the result store and the figure and report
commands need them without ever running a simulation, so they live in this
*leaf* module: it imports only other leaves (the churn model, the two switch
algorithms, the metric records and segment arithmetic; the topology library
only to validate a named topology, the rate sampler only to draw a class's
rates) and never the machine that consumes them,
:mod:`repro.streaming.session` -- which imports the records back, so
``from repro.streaming.session import SessionConfig`` keeps resolving.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.churn.model import ChurnConfig
from repro.core.base import SwitchAlgorithm
from repro.core.fast_switch import FastSwitchAlgorithm
from repro.core.normal_switch import NormalSwitchAlgorithm
from repro.metrics.collectors import SwitchMetrics
from repro.streaming.segment import SwitchPlan

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PeerClass",
    "SessionConfig",
    "SessionResult",
    "PeriodDirective",
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
class PeerClass:
    """A named bandwidth class peers are drawn from (ADSL, cable, fiber, ...).

    The paper assigns every peer the same skewed rate distribution; real
    IPTV populations are mixtures of access technologies.  A workload can
    declare a set of classes with relative ``fraction`` weights; each peer
    is assigned a class at setup (and joiners at join time) and samples its
    inbound/outbound rates from that class's distribution via
    :func:`~repro.streaming.bandwidth.sample_rates`.

    Attributes
    ----------
    name:
        Class label (appears in per-class metrics).
    fraction:
        Relative weight of this class in the population (weights are
        normalised over the declared classes; they need not sum to 1).
    inbound_low / inbound_high / inbound_mean:
        Inbound rate distribution parameters, in segments/second.
    outbound_low / outbound_high / outbound_mean:
        Outbound rate distribution parameters, in segments/second.
    region:
        Optional network-region pin: when the session runs on a latency
        fabric whose topology names this region, every member of the class
        lives there (ADSL in the exurbs, fiber downtown ...).  Empty keeps
        the topology's weighted-random assignment; the pin is ignored by
        the ideal fabric.
    """

    name: str
    fraction: float
    inbound_low: float
    inbound_high: float
    inbound_mean: float
    outbound_low: float
    outbound_high: float
    outbound_mean: float
    region: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("peer class needs a non-empty name")
        if self.fraction <= 0:
            raise ValueError(f"fraction must be positive, got {self.fraction}")
        for low, high, mean, side in (
            (self.inbound_low, self.inbound_high, self.inbound_mean, "inbound"),
            (self.outbound_low, self.outbound_high, self.outbound_mean, "outbound"),
        ):
            if not (low < mean < high):
                raise ValueError(
                    f"{side} mean must lie strictly between low and high "
                    f"for class {self.name!r}, got {low}/{mean}/{high}"
                )

    def sample_inbound(self, rng: np.random.Generator) -> float:
        """One inbound rate draw from this class's distribution."""
        from repro.streaming.bandwidth import sample_rates

        return float(
            sample_rates(1, rng, low=self.inbound_low, high=self.inbound_high,
                         mean=self.inbound_mean)[0]
        )

    def sample_outbound(self, rng: np.random.Generator) -> float:
        """One outbound rate draw from this class's distribution."""
        from repro.streaming.bandwidth import sample_rates

        return float(
            sample_rates(1, rng, low=self.outbound_low, high=self.outbound_high,
                         mean=self.outbound_mean)[0]
        )


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
        Which execution engine decides each period (the session's
        decider); one of :data:`ENGINE_NAMES`, defaulting to
        :data:`DEFAULT_ENGINE`.
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
        if self.topology:
            from repro.net.library import topology_names

            if self.topology not in topology_names():
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
