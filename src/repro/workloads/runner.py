"""Execute workload specs: paired, store-backed and parallel over repetitions.

Execution model
---------------
One *repetition* of a workload runs every compiled switch segment twice --
once per switch algorithm, on identical random draws -- against a single
overlay built from the repetition's seed (every zap starts from the same
initial topology and re-draws sources, bandwidth and churn; each session
works on its own copy, so segments stay independent and paired).
Repetition ``k`` of base seed ``s`` uses seed ``s + k``, exactly like the
size-sweep machinery, so:

* repetitions are independent and deterministically seeded, which lets
  :func:`run_workload` map them over the shared
  :class:`~repro.dist.pool.WorkerPool` with results **bit-identical** to
  a serial run (same guarantee, same mechanism, as
  :func:`~repro.experiments.sweeps.run_size_sweep`);
* each repetition is one document in the persistent
  :class:`~repro.experiments.store.ResultStore`, keyed by a content hash
  of the full spec (dict round trip), the seed and the code version --
  re-running a named workload replays from disk without simulating.

What is stored/reported per repetition is a pair of
:class:`SwitchOutcome` sequences (one entry per switch segment and
algorithm): the paper's switch-time aggregates plus the workload QoE --
per-phase continuity/stalls and per-class switch-time percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.config import make_session_config
from repro.experiments.store import BaseResultStore, _fingerprint, replay_or_execute
from repro.churn.model import ChurnConfig
from repro.metrics.collectors import RoundSample
from repro.metrics.qoe import (
    ClassSwitchStats,
    PhaseQoE,
    continuity_index,
    per_class_switch_stats,
    phase_qoe,
)
from repro.metrics.report import mean_of, reduction_ratio
from repro.records import from_json, to_json
from repro.sim.rng import derive_seed
from repro.streaming.session import (
    SessionConfig,
    SessionResult,
    SwitchSession,
    build_session_overlay,
)
from repro.workloads.schedule import SegmentPlan, compile_workload
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "SwitchOutcome",
    "WorkloadRepResult",
    "WorkloadResult",
    "workload_fingerprint",
    "segment_config",
    "run_workload_rep",
    "run_workload",
]

#: Algorithms of one paired run, in execution order.
_PAIRED_ALGORITHMS = ("normal", "fast")


# --------------------------------------------------------------------------- #
# result records
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SwitchOutcome:
    """Summary of one switch segment under one algorithm.

    Times are seconds from the segment's switch instant; ``startup_delay``
    is the paper's playback-start time of the new source (switch time plus
    the finished-old-playback condition).
    """

    segment: int
    phase: str
    algorithm: str
    n_peers: int
    avg_finish_old: float
    avg_prepare_new: float
    avg_switch_time: float
    startup_delay: float
    unfinished: int
    overhead_ratio: float
    stall_periods: int
    continuity: float
    per_phase: Tuple[PhaseQoE, ...]
    per_class: Tuple[ClassSwitchStats, ...]


@dataclass(frozen=True)
class WorkloadRepResult:
    """Both algorithms' switch outcomes for one workload repetition."""

    workload: str
    seed: int
    n_nodes: int
    normal: Tuple[SwitchOutcome, ...]
    fast: Tuple[SwitchOutcome, ...]

    @property
    def n_switches(self) -> int:
        """Number of switch segments executed."""
        return len(self.fast)

    def reductions(self) -> List[float]:
        """Per-segment switch-time reduction of fast versus normal."""
        return [
            reduction_ratio(n.avg_switch_time, f.avg_switch_time)
            for n, f in zip(self.normal, self.fast)
        ]


@dataclass(frozen=True)
class WorkloadResult:
    """All repetitions of one workload, plus aggregation helpers."""

    spec: WorkloadSpec
    seed: int
    repetitions: int
    reps: Tuple[WorkloadRepResult, ...]
    replayed: int

    @property
    def simulated(self) -> int:
        """How many repetitions were freshly simulated (not replayed)."""
        return self.repetitions - self.replayed

    @property
    def mean_reduction(self) -> float:
        """Switch-time reduction averaged over every segment and repetition."""
        return mean_of([r for rep in self.reps for r in rep.reductions()])

    # -- tables ---------------------------------------------------------- #
    def switch_rows(self) -> List[Dict[str, object]]:
        """One row per switch segment, averaged over repetitions."""
        rows: List[Dict[str, object]] = []
        for index in range(self.reps[0].n_switches if self.reps else 0):
            normals = [rep.normal[index] for rep in self.reps]
            fasts = [rep.fast[index] for rep in self.reps]
            rows.append(
                {
                    "switch": index + 1,
                    "phase": fasts[0].phase,
                    "normal_switch_time": mean_of([o.avg_switch_time for o in normals]),
                    "fast_switch_time": mean_of([o.avg_switch_time for o in fasts]),
                    "reduction": reduction_ratio(
                        mean_of([o.avg_switch_time for o in normals]),
                        mean_of([o.avg_switch_time for o in fasts]),
                    ),
                    "fast_startup_delay": mean_of([o.startup_delay for o in fasts]),
                    "fast_continuity": mean_of([o.continuity for o in fasts]),
                    "fast_stalls": mean_of([float(o.stall_periods) for o in fasts]),
                    "unfinished": mean_of([float(o.unfinished) for o in fasts]),
                }
            )
        return rows

    def class_rows(self) -> List[Dict[str, object]]:
        """One row per (switch, peer class), averaged over repetitions."""
        rows: List[Dict[str, object]] = []
        for index in range(self.reps[0].n_switches if self.reps else 0):
            # Union over repetitions: a rare class can draw zero peers in
            # some repetition without vanishing from the table.
            labels = sorted({
                stats.peer_class
                for rep in self.reps
                for stats in rep.fast[index].per_class
            })
            for label in labels:
                fast_stats = [_class_stats(rep.fast[index], label) for rep in self.reps]
                normal_stats = [_class_stats(rep.normal[index], label) for rep in self.reps]
                fast_stats = [s for s in fast_stats if s is not None]
                normal_stats = [s for s in normal_stats if s is not None]
                if not fast_stats or not normal_stats:
                    continue
                rows.append(
                    {
                        "switch": index + 1,
                        "class": label,
                        "peers": mean_of([float(s.peers) for s in fast_stats]),
                        "normal_p50": mean_of([s.p50 for s in normal_stats]),
                        "fast_p50": mean_of([s.p50 for s in fast_stats]),
                        "normal_p90": mean_of([s.p90 for s in normal_stats]),
                        "fast_p90": mean_of([s.p90 for s in fast_stats]),
                        "fast_p99": mean_of([s.p99 for s in fast_stats]),
                        "reduction": reduction_ratio(
                            mean_of([s.mean for s in normal_stats]),
                            mean_of([s.mean for s in fast_stats]),
                        ),
                    }
                )
        return rows

    def phase_rows(self) -> List[Dict[str, object]]:
        """One row per (switch, phase) with fast-algorithm QoE, averaged."""
        rows: List[Dict[str, object]] = []
        for index in range(self.reps[0].n_switches if self.reps else 0):
            phase_names = [q.phase for q in self.reps[0].fast[index].per_phase]
            for position, name in enumerate(phase_names):
                fast_q = [rep.fast[index].per_phase[position] for rep in self.reps]
                normal_q = [rep.normal[index].per_phase[position] for rep in self.reps]
                rows.append(
                    {
                        "switch": index + 1,
                        "phase": name,
                        "window": f"{fast_q[0].start:.0f}-{fast_q[0].end:.0f}s",
                        "normal_continuity": mean_of([q.continuity_index for q in normal_q]),
                        "fast_continuity": mean_of([q.continuity_index for q in fast_q]),
                        "fast_stalls": mean_of([float(q.stall_periods) for q in fast_q]),
                        "fast_switched": mean_of([q.fraction_switched for q in fast_q]),
                    }
                )
        return rows


def _class_stats(outcome: SwitchOutcome, label: str) -> Optional[ClassSwitchStats]:
    for stats in outcome.per_class:
        if stats.peer_class == label:
            return stats
    return None


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
def workload_fingerprint(
    spec: WorkloadSpec, seed: int, *, version: Optional[str] = None
) -> str:
    """Stable store key of one workload repetition.

    Covers the complete spec (dict round trip), the repetition seed, the
    schema and the code version -- any change to the script, the
    population, the simulator or the store layout rotates the key.
    """
    return _fingerprint("workload", version, spec=spec.to_dict(), seed=int(seed))


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def segment_config(
    spec: WorkloadSpec,
    segment: SegmentPlan,
    session_seed: int,
    *,
    algorithm: str = "fast",
    engine: Optional[str] = None,
) -> SessionConfig:
    """The session configuration of one switch segment of ``spec``.

    ``engine`` selects the simulation core (``"oracle"`` or ``"vector"``);
    ``None`` defers to a spec override or the session's
    :data:`~repro.streaming.session.DEFAULT_ENGINE`.  The choice never
    enters fingerprints -- both engines are bit-identical.
    """
    base_churn = ChurnConfig(
        leave_fraction=spec.base_leave_fraction,
        join_fraction=spec.base_join_fraction,
        enabled=spec.base_leave_fraction > 0 or spec.base_join_fraction > 0,
    )
    overrides = spec.overrides_dict()
    overrides.setdefault("churn", base_churn)
    # Engine-controlled fields always win over spec overrides: the schedule
    # owns the timeline and the spec owns the population.
    overrides.update(
        tau=spec.tau,
        max_time=segment.duration,
        record_rounds=True,
        run_full_horizon=True,
        peer_classes=spec.peer_classes,
    )
    if engine is not None:
        overrides["engine"] = engine
    return make_session_config(
        spec.n_nodes,
        algorithm=algorithm,
        seed=int(session_seed),
        **overrides,
    )


def _segment_seed(rep_seed: int, segment_index: int) -> int:
    """Seed of one segment's sessions (both algorithms share it)."""
    if segment_index == 0:
        return int(rep_seed)
    return derive_seed(rep_seed, f"workload-segment-{segment_index}")


def _build_outcome(
    segment: SegmentPlan, algorithm: str, result: SessionResult
) -> SwitchOutcome:
    rounds: Sequence[RoundSample] = result.metrics.rounds
    measured = [sample for sample in rounds if sample.time > 0]
    peers = max((sample.tracked_peers for sample in measured), default=result.n_peers)
    # The phase windows partition the segment's periods, and phase_qoe owns
    # the subtle parts of stall accounting (warm-up baseline exclusion), so
    # the segment total is simply the sum over phases.
    per_phase = phase_qoe(rounds, segment.qoe_windows())
    stalls = sum(q.stall_periods for q in per_phase)
    return SwitchOutcome(
        segment=segment.index,
        phase=segment.switch_phase,
        algorithm=algorithm,
        n_peers=result.metrics.n_peers,
        avg_finish_old=result.metrics.avg_finish_old,
        avg_prepare_new=result.metrics.avg_prepare_new,
        avg_switch_time=result.metrics.avg_switch_time,
        startup_delay=result.metrics.avg_start_time,
        unfinished=result.metrics.unfinished,
        overhead_ratio=result.overhead_ratio,
        stall_periods=int(stalls),
        continuity=continuity_index(int(stalls), peers, len(measured)),
        per_phase=per_phase,
        per_class=per_class_switch_stats(
            result.metrics.outcomes, horizon=result.metrics.horizon
        ),
    )


def run_workload_rep(
    spec: WorkloadSpec, seed: int, *, engine: Optional[str] = None
) -> WorkloadRepResult:
    """Run one repetition of ``spec`` (every segment, both algorithms).

    The overlay is built once from ``seed`` and every session of the
    repetition starts from its own copy of it: each zap begins from the
    same initial topology while the channel -- sources, bandwidth draws,
    churn schedule -- is re-drawn per segment (churn from one segment does
    not carry into the next; that independence is what keeps segments
    replayable and paired).  Both algorithms of a segment run on the same
    session seed, so the comparison stays paired exactly as in the paper.
    """
    schedule = compile_workload(spec)
    first_config = segment_config(spec, schedule.segments[0], seed, engine=engine)
    overlay = build_session_overlay(
        spec.n_nodes,
        seed,
        min_degree=first_config.min_degree,
        trace_mean_degree=first_config.trace_mean_degree,
    )
    outcomes: Dict[str, List[SwitchOutcome]] = {alg: [] for alg in _PAIRED_ALGORITHMS}
    for segment in schedule.segments:
        session_seed = _segment_seed(seed, segment.index)
        config = segment_config(spec, segment, session_seed, engine=engine)
        for algorithm in _PAIRED_ALGORITHMS:
            session = SwitchSession(
                config.with_algorithm(algorithm),
                overlay=overlay,
                directives=segment.directive_map(),
            )
            outcomes[algorithm].append(
                _build_outcome(segment, algorithm, session.run())
            )
    return WorkloadRepResult(
        workload=spec.name,
        seed=int(seed),
        n_nodes=spec.n_nodes,
        normal=tuple(outcomes["normal"]),
        fast=tuple(outcomes["fast"]),
    )


def _execute_rep(
    payload: Tuple[Dict[str, Any], int, Optional[str]]
) -> WorkloadRepResult:
    """Worker entry point (module-level so it pickles)."""
    spec_dict, seed, engine = payload
    return run_workload_rep(WorkloadSpec.from_dict(spec_dict), seed, engine=engine)


def run_workload(
    spec: WorkloadSpec,
    *,
    seed: int = 0,
    repetitions: int = 1,
    workers: int = 1,
    store: Optional[BaseResultStore] = None,
    engine: Optional[str] = None,
) -> WorkloadResult:
    """Run (or replay) ``repetitions`` independent runs of ``spec``.

    Parameters
    ----------
    workers:
        Maximum worker processes; ``1`` runs serially in-process.  Results
        are bit-identical for any value (independently seeded repetitions,
        deterministic aggregation order).
    store:
        Optional persistent result store; repetitions found there are
        replayed, missing ones are simulated and persisted.  A replay-only
        store raises :class:`~repro.experiments.store.MissingResultError`
        instead of simulating.
    engine:
        Simulation core used for fresh repetitions (``"oracle"`` or
        ``"vector"``; ``None`` defers to a spec override or
        :data:`~repro.streaming.config.DEFAULT_ENGINE`).  Engines are
        bit-identical, so the choice does not rotate store keys and
        replays stay valid either way.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rep_seeds = [seed + rep for rep in range(repetitions)]
    keys = [workload_fingerprint(spec, rep_seed) for rep_seed in rep_seeds]

    def execute(pending: List[int]) -> Iterator[WorkloadRepResult]:
        from repro.dist.pool import WorkerPool

        payloads = [(spec.to_dict(), rep_seeds[i], engine) for i in pending]
        return WorkerPool(workers).map(_execute_rep, payloads)

    reps, replayed = replay_or_execute(
        store,
        "workload",
        keys,
        decode=lambda document: from_json(WorkloadRepResult, document["rep"]),
        execute=execute,
        encode=lambda index, rep, net_key: {
            "workload": spec.name,
            "seed": rep_seeds[index],
            "n_nodes": spec.n_nodes,
            "spec": spec.to_dict(),
            "rep": to_json(rep),
            **({} if net_key is None else {"net_key": net_key}),
        },
        topology=str(spec.overrides_dict().get("topology", "")),
    )
    return WorkloadResult(
        spec=spec,
        seed=int(seed),
        repetitions=int(repetitions),
        reps=tuple(reps),
        replayed=replayed,
    )
