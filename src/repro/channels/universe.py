"""The multi-channel universe: N channel meshes, scripted zapping.

This module promotes the single-switch session into an ecosystem
simulation.  A :class:`UniverseSpec` declares the lineup (how many
channels, how skewed, how many viewers) and the viewer mix (surfers vs.
loyal); :func:`plan_universe` expands it deterministically into a
:class:`UniversePlan` -- the Zipf lineup, per-channel spawned seeds and the
compiled zapping script; :func:`run_channel_unit` runs one channel of a
plan under both switch algorithms, and :func:`fold_units` folds a
repetition's units into its :class:`UniverseRepResult`.

Execution model
---------------
Each channel runs the paper's S1 -> S2 source switch over its apportioned
audience: the switch *is* the zap as experienced by every viewer tuned to
(or arriving at) that channel, so one universe run measures the paper's
experiment across a whole lineup at once.  The scripted zap plan drives
each mesh's membership churn -- departures are viewers tuning away
mid-switch, arrivals are viewers zapping in and obtaining neighbours from
the channel :class:`~repro.channels.directory.Directory`.

Channel meshes are causally independent (a mesh never reads another mesh's
state; cross-channel coupling lives entirely in the precomputed plan) and
stochastically independent (per-channel seeds come from
:func:`repro.sim.rng.sequence_seeds`), so a ``(repetition, channel)`` pair
is the unit of work: :func:`run_universe_rep` runs a repetition's units one
after the other in-process, the sharded runtime (:mod:`repro.dist`) runs
the same function in worker processes.  Same seed, any worker count:
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.channels.aggregates import RepAggregator, unit_aggregate
from repro.channels.directory import Directory
from repro.channels.lineup import Channel, ChannelLineup
from repro.channels.zapping import ZapPlan, ZappingProcess
from repro.churn.model import ChurnConfig
from repro.experiments.config import make_session_config
from repro.metrics.collectors import completion_times, switch_time_stats
from repro.metrics.qoe import phase_qoe
from repro.net.library import topology_names
from repro.records import from_json, to_json
from repro.sim.clock import round_half_up
from repro.sim.rng import sequence_seeds
from repro.streaming.config import SessionConfig, SessionResult

__all__ = [
    "UniverseSpec",
    "UniversePlan",
    "ChannelOutcome",
    "UniverseRepResult",
    "plan_universe",
    "channel_mesh_config",
    "run_channel_meshes",
    "run_channel_unit",
    "fold_units",
    "run_universe_rep",
]

#: Algorithms of one paired universe run, in execution order.
PAIRED_ALGORITHMS: Tuple[str, ...] = ("normal", "fast")

#: Session-config fields the universe engine owns; spec overrides must not
#: name them (the plan controls the timeline, population and churn).
_RESERVED_OVERRIDES = frozenset(
    {
        "seed",
        "n_nodes",
        "algorithm",
        "tau",
        "max_time",
        "run_full_horizon",
        "record_rounds",
        "churn",
        "warmup",
        "peer_classes",
        "topology",
        # The compute engine (oracle/vector) is bit-identical by contract
        # and must never rotate spec fingerprints; select it via the
        # runner/CLI ``compute_engine`` parameter instead.
        "engine",
    }
)


@dataclass(frozen=True)
class UniverseSpec:
    """A complete, self-contained description of one channel universe.

    Attributes
    ----------
    name / description:
        Identification (the library registers universes by name).
    n_channels:
        Lineup size.
    n_viewers:
        Total viewer population shared by the lineup (each channel also
        gets its own pair of sources on top).
    zipf_exponent:
        Skew of the popularity distribution (1.0 is the classic Zipf law).
    min_audience:
        Smallest initial audience any channel may receive; must be at
        least the mesh minimum degree so every channel can sustain a
        gossip overlay.
    surfer_fraction:
        Probability that a viewer is a channel surfer.
    surfer_zap_rate / loyal_zap_rate:
        Per-period zap probability of surfers / loyal viewers.
    duration:
        Simulated horizon in seconds (rounded to whole periods).
    tau:
        Scheduling period of every mesh, in seconds.
    topology:
        Name of a library network topology (:mod:`repro.net.library`)
        every channel mesh runs over; empty keeps the paper's ideal
        zero-latency network.  Each mesh gets its own latency fabric
        seeded from its channel seed, so universes stay bit-identical
        between the serial path and worker fan-out.
    session_overrides:
        Extra :class:`~repro.streaming.config.SessionConfig` fields
        applied to every channel mesh, as a sorted tuple of pairs (JSON
        primitives only, so specs fingerprint exactly).
    """

    name: str
    description: str = ""
    n_channels: int = 20
    n_viewers: int = 1000
    zipf_exponent: float = 1.0
    min_audience: int = 8
    surfer_fraction: float = 0.3
    surfer_zap_rate: float = 0.15
    loyal_zap_rate: float = 0.01
    duration: float = 50.0
    tau: float = 1.0
    topology: str = ""
    session_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("universe needs a non-empty name")
        if self.topology and self.topology not in topology_names():
            raise ValueError(
                f"unknown topology {self.topology!r}; known: {topology_names()}"
            )
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.duration <= 0 or self.tau <= 0:
            raise ValueError("duration and tau must be positive")
        for attr in ("surfer_fraction", "surfer_zap_rate", "loyal_zap_rate"):
            value = getattr(self, attr)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        object.__setattr__(
            self,
            "session_overrides",
            tuple(sorted((str(k), v) for k, v in dict(self.session_overrides).items())),
        )
        for key, value in self.session_overrides:
            if key in _RESERVED_OVERRIDES:
                raise ValueError(
                    f"session override {key!r} is owned by the universe engine"
                )
            if value is not None and not isinstance(value, (bool, int, float, str)):
                raise ValueError(
                    f"session override {key!r} must be a JSON primitive, "
                    f"got {type(value).__name__}"
                )
        if self.min_audience < self.min_degree:
            raise ValueError(
                f"min_audience must be at least the mesh min_degree "
                f"({self.min_degree}), got {self.min_audience}"
            )
        if self.n_viewers < self.n_channels * self.min_audience:
            raise ValueError(
                f"need at least n_channels * min_audience = "
                f"{self.n_channels * self.min_audience} viewers, got {self.n_viewers}"
            )

    # ------------------------------------------------------------------ #
    @property
    def min_degree(self) -> int:
        """The mesh minimum degree ``M`` the channel meshes will run with."""
        return int(dict(self.session_overrides).get("min_degree", 5))

    @property
    def n_periods(self) -> int:
        """Whole scheduling periods the universe simulates."""
        return max(1, round_half_up(self.duration / self.tau))

    @property
    def horizon(self) -> float:
        """Effective simulated horizon (``n_periods * tau``) in seconds."""
        return self.n_periods * self.tau

    def overrides_dict(self) -> Dict[str, Any]:
        """The session-config overrides as a plain dictionary."""
        return dict(self.session_overrides)

    def scaled_to(
        self, *, n_channels: Optional[int] = None, n_viewers: Optional[int] = None
    ) -> "UniverseSpec":
        """A copy of this spec at a different lineup/population size."""
        return replace(
            self,
            n_channels=int(n_channels) if n_channels is not None else self.n_channels,
            n_viewers=int(n_viewers) if n_viewers is not None else self.n_viewers,
        )

    def with_topology(self, topology: str) -> "UniverseSpec":
        """A copy of this spec running over a different network topology."""
        return replace(self, topology=str(topology))

    # ------------------------------------------------------------------ #
    # dict round trip (store fingerprinting)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dictionary form; see :meth:`from_dict`.

        The record's :func:`~repro.records.to_json`, except that the
        overrides are a dict -- the form the fingerprints hash.
        """
        return {**to_json(self), "session_overrides": dict(self.session_overrides)}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "UniverseSpec":
        """Rebuild a spec from :meth:`to_dict` output (exact round trip)."""
        overrides = tuple(payload.get("session_overrides", {}).items())
        return from_json(UniverseSpec, {**payload, "session_overrides": overrides})


@dataclass(frozen=True)
class UniversePlan:
    """The deterministic expansion of ``(spec, seed)``.

    ``channel_seeds[c]`` seeds everything stochastic about channel ``c``
    (its overlay, bandwidth draws, membership and churn selection);
    ``zap_plan`` scripts the cross-channel traffic.  The plan is a pure
    function of the spec and the repetition seed, so any process --
    the serial run or an isolated channel worker -- derives the identical
    plan locally instead of shipping state around.
    """

    spec: UniverseSpec
    seed: int
    lineup: ChannelLineup
    channel_seeds: Tuple[int, ...]
    zap_plan: ZapPlan
    directory: Directory

    @property
    def n_channels(self) -> int:
        """Lineup size."""
        return self.lineup.n_channels


def plan_universe(spec: UniverseSpec, seed: int) -> UniversePlan:
    """Expand ``spec`` under ``seed`` into its :class:`UniversePlan`."""
    seeds = sequence_seeds(seed, spec.n_channels + 1)
    universe_seed, channel_seeds = seeds[0], tuple(seeds[1:])
    lineup = ChannelLineup.build(
        spec.n_channels,
        spec.n_viewers,
        exponent=spec.zipf_exponent,
        min_audience=spec.min_audience,
    )
    directory = Directory(
        lineup, min_degree=spec.min_degree, channel_seeds=channel_seeds
    )
    zapping = ZappingProcess(
        lineup,
        directory,
        surfer_fraction=spec.surfer_fraction,
        surfer_zap_rate=spec.surfer_zap_rate,
        loyal_zap_rate=spec.loyal_zap_rate,
        rng=np.random.default_rng(universe_seed),
    )
    zap_plan = zapping.generate(spec.n_periods)
    return UniversePlan(
        spec=spec,
        seed=int(seed),
        lineup=lineup,
        channel_seeds=channel_seeds,
        zap_plan=zap_plan,
        directory=directory,
    )


def channel_mesh_config(
    spec: UniverseSpec,
    channel: Channel,
    channel_seed: int,
    algorithm: str,
    *,
    compute_engine: Optional[str] = None,
) -> SessionConfig:
    """The session configuration of one channel's mesh.

    The mesh holds the channel's audience plus its two sources; base churn
    is disabled because the zap plan scripts membership changes as exact
    per-period counts.  ``compute_engine`` picks the simulation core
    (``"oracle"``/``"vector"``; ``None`` keeps
    :data:`~repro.streaming.config.DEFAULT_ENGINE`).
    """
    overrides = spec.overrides_dict()
    overrides.update(
        tau=spec.tau,
        max_time=spec.horizon,
        record_rounds=True,
        run_full_horizon=True,
        churn=ChurnConfig.disabled(),
        topology=spec.topology,
    )
    if compute_engine is not None:
        overrides["engine"] = compute_engine
    return make_session_config(
        channel.audience + 2,
        algorithm=algorithm,
        seed=int(channel_seed),
        **overrides,
    )


def run_channel_meshes(
    plan: UniversePlan,
    channel_index: int,
    *,
    compute_engine: Optional[str] = None,
) -> Iterator[Tuple[str, SessionResult]]:
    """Run one channel's mesh under each algorithm, paired on one overlay.

    Yields ``(algorithm, result)`` in :data:`PAIRED_ALGORITHMS` order; each
    mesh runs on its own engine and is gone before the next one is built.
    """
    from repro.streaming.session import SwitchSession, build_session_overlay

    channel = plan.lineup.channels[channel_index]
    channel_seed = plan.channel_seeds[channel_index]
    configs = [
        channel_mesh_config(
            plan.spec, channel, channel_seed, algorithm, compute_engine=compute_engine
        )
        for algorithm in PAIRED_ALGORITHMS
    ]
    overlay = build_session_overlay(
        configs[0].n_nodes,
        channel_seed,
        min_degree=configs[0].min_degree,
        trace_mean_degree=configs[0].trace_mean_degree,
    )
    directives = plan.zap_plan.channel_directives(channel_index)
    membership_factory = plan.directory.membership_factory(channel_index)
    for config in configs:
        yield config.algorithm, SwitchSession(
            config,
            overlay=overlay,
            directives=directives,
            label=channel.name,
            membership_factory=membership_factory,
        ).run()


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChannelOutcome:
    """One channel mesh's zap-time and QoE summary under one algorithm.

    Times are seconds from the switch instant (the zap, for the viewers on
    the channel); ``mean_zap_time`` and the percentiles are over per-peer
    switch *completion* times -- the moment the new stream's playback
    starts, which is what a zapping viewer perceives.
    """

    channel: int
    name: str
    popularity: float
    decile: int
    algorithm: str
    audience: int
    n_peers: int
    arrivals: int
    departures: int
    mean_zap_time: float
    p50: float
    p90: float
    p99: float
    unfinished: int
    stall_periods: int
    continuity: float
    overhead_ratio: float


@dataclass(frozen=True)
class UniverseRepResult:
    """Both algorithms' channel outcomes for one universe repetition.

    ``aggregates`` is the repetition's streaming-aggregate block
    (:mod:`repro.channels.aggregates`): per algorithm, a quantile sketch
    and a stream accumulator over the pooled per-peer zap times, overall
    and per popularity decile.  Freshly simulated repetitions always carry
    it (every execution path folds it identically); repetitions replayed
    from the store leave it ``None`` -- figure generation reads the block
    straight off the store document instead.
    """

    universe: str
    seed: int
    n_channels: int
    n_viewers: int
    n_zaps: int
    surfers: int
    normal: Tuple[ChannelOutcome, ...]
    fast: Tuple[ChannelOutcome, ...]
    aggregates: Optional[Dict[str, Any]] = None

    def outcomes(self, algorithm: str) -> Tuple[ChannelOutcome, ...]:
        """The per-channel outcomes of one algorithm."""
        if algorithm == "normal":
            return self.normal
        if algorithm == "fast":
            return self.fast
        raise KeyError(f"unknown algorithm {algorithm!r}")


def _channel_outcome(
    plan: UniversePlan,
    channel_index: int,
    algorithm: str,
    result: SessionResult,
) -> ChannelOutcome:
    channel = plan.lineup.channels[channel_index]
    stats = switch_time_stats(result.metrics.outcomes, horizon=result.metrics.horizon)[""]
    qoe = phase_qoe(
        result.metrics.rounds, [("zapping", 0.0, plan.spec.horizon)]
    )[0]
    return ChannelOutcome(
        channel=channel.index,
        name=channel.name,
        popularity=channel.popularity,
        decile=plan.lineup.decile(channel.index),
        algorithm=algorithm,
        audience=channel.audience,
        n_peers=stats.peers,
        arrivals=sum(count for _, count in plan.zap_plan.arrivals[channel_index]),
        departures=sum(count for _, count in plan.zap_plan.departures[channel_index]),
        mean_zap_time=stats.mean,
        p50=stats.p50,
        p90=stats.p90,
        p99=stats.p99,
        unfinished=stats.unfinished,
        stall_periods=qoe.stall_periods,
        continuity=qoe.continuity_index,
        overhead_ratio=result.overhead_ratio,
    )


# --------------------------------------------------------------------------- #
# execution: the unit of work and the fold, shared by every execution path
# --------------------------------------------------------------------------- #
def run_channel_unit(
    plan: UniversePlan,
    channel_index: int,
    *,
    compute_engine: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one ``(repetition, channel)`` unit of work, as a plain-JSON document.

    Per algorithm the channel's :class:`ChannelOutcome` (as a dict) and,
    under ``"aggregates"``, the :func:`~repro.channels.aggregates.
    unit_aggregate` of its per-peer zap times -- the samples themselves
    never leave the unit, so whoever folds it holds O(channels), not
    O(viewers).  This document is what a shard worker returns, what the
    journal checkpoints and what :func:`fold_units` reads.
    """
    unit: Dict[str, Any] = {"rep_seed": plan.seed, "channel": int(channel_index)}
    aggregates: Dict[str, Any] = {}
    for algorithm, result in run_channel_meshes(
        plan, channel_index, compute_engine=compute_engine
    ):
        outcome = _channel_outcome(plan, channel_index, algorithm, result)
        samples = completion_times(
            result.metrics.outcomes, "switch_complete_time", result.metrics.horizon
        )
        unit[algorithm] = to_json(outcome)
        aggregates[algorithm] = unit_aggregate(samples, outcome.unfinished)
    unit["aggregates"] = aggregates
    return unit


def fold_units(plan: UniversePlan, units: Iterable[Mapping[str, Any]]) -> UniverseRepResult:
    """Fold a repetition's units, in ascending channel order, into its result.

    The order is the contract: the aggregate block is a chain of sketch
    merges, so one fold order is what keeps the persisted ``aggregates``
    byte-identical whoever ran the units.
    """
    outcomes: Dict[str, List[ChannelOutcome]] = {a: [] for a in PAIRED_ALGORITHMS}
    aggregator = RepAggregator()
    for unit in units:
        for algorithm in PAIRED_ALGORITHMS:
            outcome = from_json(ChannelOutcome, unit[algorithm])
            outcomes[algorithm].append(outcome)
            aggregator.fold_unit(algorithm, outcome.decile, unit["aggregates"][algorithm])
    return UniverseRepResult(
        universe=plan.spec.name,
        seed=plan.seed,
        n_channels=plan.n_channels,
        n_viewers=plan.spec.n_viewers,
        n_zaps=plan.zap_plan.n_zaps,
        surfers=plan.zap_plan.surfers,
        normal=tuple(outcomes["normal"]),
        fast=tuple(outcomes["fast"]),
        aggregates=aggregator.to_dict(),
    )


def run_universe_rep(
    spec: UniverseSpec, seed: int, *, compute_engine: Optional[str] = None
) -> UniverseRepResult:
    """Run one repetition of ``spec`` in-process, channel after channel."""
    plan = plan_universe(spec, seed)
    return fold_units(
        plan,
        (
            run_channel_unit(plan, channel_index, compute_engine=compute_engine)
            for channel_index in range(plan.n_channels)
        ),
    )
