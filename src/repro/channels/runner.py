"""Execute universes: paired, store-backed and parallel over channels.

Execution model
---------------
One *repetition* of a universe is fully determined by ``(spec, seed)`` --
the plan (lineup, per-channel seeds, zap script) is a pure function of the
two, and every channel mesh is causally independent given the plan.  So a
``(repetition, channel)`` pair is the unit of work, one function runs it
(:func:`~repro.channels.universe.run_channel_unit`) and one folds a
repetition's units (:func:`~repro.channels.universe.fold_units`);
:func:`run_universe` only decides who calls them:

* ``workers == 1`` without ``shards``: this process, channel after channel
  (:func:`~repro.channels.universe.run_universe_rep`).
* ``workers > 1`` or an explicit ``shards`` count: the worker processes of
  the sharded runtime (:class:`~repro.dist.runner.ShardedExecutor` over
  the shared :class:`~repro.dist.pool.WorkerPool`), with a checkpoint
  journal in between: crash-tolerant, resumable, reassembled in
  deterministic channel order.  Without ``shards`` each unit is its own
  shard.  Results are **bit-identical** to the in-process run -- the
  property the acceptance tests pin down.

Each repetition persists as one ``universe-*`` document in the
:class:`~repro.experiments.store.ResultStore`, keyed by a content hash of
the full spec (dict round trip), the repetition seed and the code version;
re-running a named universe replays from disk without simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.channels.universe import (
    UniverseRepResult,
    UniverseSpec,
    run_universe_rep,
)
from repro.experiments.store import BaseResultStore, _fingerprint, replay_or_execute
from repro.metrics.report import mean_of, reduction_ratio
from repro.metrics.universe import weighted_mean
from repro.records import from_json, to_json

__all__ = [
    "UniverseResult",
    "universe_fingerprint",
    "run_universe",
]


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
def universe_fingerprint(
    spec: UniverseSpec, seed: int, *, version: Optional[str] = None
) -> str:
    """Stable store key of one universe repetition.

    Covers the complete spec (dict round trip), the repetition seed, the
    schema and the code version -- any change to the lineup, the viewer
    mix, the simulator or the store layout rotates the key.
    """
    return _fingerprint("universe", version, spec=spec.to_dict(), seed=int(seed))


# --------------------------------------------------------------------------- #
# aggregated result
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UniverseResult:
    """All repetitions of one universe, plus aggregation helpers."""

    spec: UniverseSpec
    seed: int
    repetitions: int
    reps: Tuple[UniverseRepResult, ...]
    replayed: int

    @property
    def simulated(self) -> int:
        """How many repetitions were freshly simulated (not replayed)."""
        return self.repetitions - self.replayed

    @property
    def n_zaps(self) -> int:
        """Total scripted zap events across all repetitions."""
        return sum(rep.n_zaps for rep in self.reps)

    @property
    def mean_reduction(self) -> float:
        """Zap-time reduction of fast vs. normal over the whole lineup.

        Computed from the peer-weighted mean zap time of each algorithm,
        pooled over every channel and repetition.
        """
        normal = weighted_mean(
            [(o.mean_zap_time, o.n_peers) for rep in self.reps for o in rep.normal]
        )
        fast = weighted_mean(
            [(o.mean_zap_time, o.n_peers) for rep in self.reps for o in rep.fast]
        )
        return reduction_ratio(normal, fast)

    # -- tables ---------------------------------------------------------- #
    def channel_rows(self) -> List[Dict[str, object]]:
        """One row per channel, averaged over repetitions."""
        rows: List[Dict[str, object]] = []
        for index in range(self.reps[0].n_channels if self.reps else 0):
            normals = [rep.normal[index] for rep in self.reps]
            fasts = [rep.fast[index] for rep in self.reps]
            first = fasts[0]
            normal_mean = mean_of([o.mean_zap_time for o in normals])
            fast_mean = mean_of([o.mean_zap_time for o in fasts])
            rows.append(
                {
                    "channel": first.name,
                    "decile": first.decile,
                    "popularity": round(first.popularity, 4),
                    "audience": first.audience,
                    "arrivals": mean_of([float(o.arrivals) for o in fasts]),
                    "departures": mean_of([float(o.departures) for o in fasts]),
                    "normal_zap_time": normal_mean,
                    "fast_zap_time": fast_mean,
                    "reduction": reduction_ratio(normal_mean, fast_mean),
                    "fast_p90": mean_of([o.p90 for o in fasts]),
                    "fast_continuity": mean_of([o.continuity for o in fasts]),
                    "unfinished": mean_of([float(o.unfinished) for o in fasts]),
                }
            )
        return rows

    def decile_rows(self) -> List[Dict[str, object]]:
        """One row per populated popularity decile, averaged over repetitions.

        A decile's zap time is the peer-weighted mean over every peer of
        its channels (exact pooling, not a mean of channel means).
        """
        deciles = sorted(
            {outcome.decile for rep in self.reps for outcome in rep.fast}
        )
        rows: List[Dict[str, object]] = []
        for decile in deciles:
            normal_pairs = [
                (o.mean_zap_time, o.n_peers)
                for rep in self.reps
                for o in rep.normal
                if o.decile == decile
            ]
            fast_pairs = [
                (o.mean_zap_time, o.n_peers)
                for rep in self.reps
                for o in rep.fast
                if o.decile == decile
            ]
            channels = {
                o.channel for rep in self.reps for o in rep.fast if o.decile == decile
            }
            normal_mean = weighted_mean(normal_pairs)
            fast_mean = weighted_mean(fast_pairs)
            rows.append(
                {
                    "decile": decile,
                    "channels": len(channels),
                    "peers": sum(n for _, n in fast_pairs) // max(1, len(self.reps)),
                    "normal_zap_time": normal_mean,
                    "fast_zap_time": fast_mean,
                    "reduction": reduction_ratio(normal_mean, fast_mean),
                }
            )
        return rows


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def run_universe(
    spec: UniverseSpec,
    *,
    seed: int = 0,
    repetitions: int = 1,
    workers: int = 1,
    store: Optional[BaseResultStore] = None,
    compute_engine: Optional[str] = None,
    shards: Optional[int] = None,
    progress: Any = False,
    max_retries: int = 1,
    fault_hook: Optional[Callable[[int, int], None]] = None,
    after_shard: Optional[Callable[[int], None]] = None,
) -> UniverseResult:
    """Run (or replay) ``repetitions`` independent runs of ``spec``.

    Parameters
    ----------
    workers:
        Worker processes of the pool.  ``1`` (with ``shards`` unset) runs
        each repetition's channels in-process; ``> 1`` runs them on the
        sharded runtime.  Results are bit-identical for any value.
    store:
        Optional persistent result store; repetitions found there are
        replayed, missing ones are simulated and persisted.  A replay-only
        store raises :class:`~repro.experiments.store.MissingResultError`
        instead of simulating.
    compute_engine:
        Simulation core for fresh repetitions (``"oracle"``/``"vector"``;
        ``None`` keeps :data:`~repro.streaming.config.DEFAULT_ENGINE`).
        Bit-identical by contract, so store keys and replays are
        engine-agnostic.
    shards:
        How many shards the sharded runtime (:mod:`repro.dist`) partitions
        the run's ``repetitions x channels`` units into.  ``None`` means
        one unit per shard when ``workers > 1`` and the in-process path
        when ``workers == 1``; an integer always selects the sharded
        runtime: a long-lived crash-tolerant worker pool, checkpoint-
        journaled against the store.  Still bit-identical to the
        in-process run at store-document level.
    progress:
        ``True`` prints a live status line (shards done/total, ETA,
        per-worker heartbeat age) to stderr while the sharded runtime
        runs; a :class:`~repro.dist.progress.ProgressReporter` instance is
        used as-is (the test seam).  Ignored in-process or when every
        repetition replays from the store.
    max_retries / fault_hook / after_shard:
        Sharded-runtime seams, forwarded to
        :class:`~repro.dist.runner.ShardedExecutor` (bounded retry,
        fault injection, post-shard callback).  Ignored in-process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rep_seeds = [seed + rep for rep in range(repetitions)]
    keys = [universe_fingerprint(spec, rep_seed) for rep_seed in rep_seeds]

    def encode(index: int, rep: UniverseRepResult, net_key: Optional[str]) -> Dict[str, Any]:
        # The streaming-aggregate block sits NEXT TO the raw outcome table,
        # never inside it: universe-scale figures read only that key (plus
        # the identification fields), so they stay O(channels), not
        # O(viewers) -- and encoding the table never walks the sketches.
        table = to_json(replace(rep, aggregates=None))
        del table["aggregates"]
        document = {
            "universe": spec.name,
            "seed": rep_seeds[index],
            "n_channels": spec.n_channels,
            "n_viewers": spec.n_viewers,
            "spec": spec.to_dict(),
            "rep": table,
        }
        if rep.aggregates is not None:
            document["aggregates"] = rep.aggregates
        if net_key is not None:
            document["net_key"] = net_key
        return document

    def execute(pending: List[int]) -> Iterator[UniverseRepResult]:
        if shards is None and workers == 1:
            return (run_universe_rep(spec, rep_seeds[i], compute_engine=compute_engine)
                    for i in pending)
        # Sharded runtime: the plan spans ALL repetition seeds (never just
        # the pending subset) so shard ids -- and the checkpoint journal
        # keyed off the plan fingerprint -- stay stable no matter how many
        # repetitions already persisted.  Without an explicit count every
        # (repetition, channel) unit is a shard.
        import repro.streaming.session  # noqa: F401 - forked workers inherit the simulator
        from repro.dist import ProgressReporter, ShardedExecutor, ShardPlan

        journal_root = None
        if store is not None and not store.replay_only:
            journal_root = store.root / "journal"
        reporter = progress if isinstance(progress, ProgressReporter) else None
        if reporter is None and progress:
            reporter = ProgressReporter()
        executor = ShardedExecutor(
            ShardPlan.build(spec, rep_seeds, shards or repetitions * spec.n_channels),
            workers=workers,
            compute_engine=compute_engine,
            journal_root=journal_root,
            max_retries=max_retries,
            fault_hook=fault_hook,
            after_shard=after_shard,
            progress=reporter,
        )
        return executor.execute([rep_seeds[i] for i in pending])

    reps, replayed = replay_or_execute(
        store,
        "universe",
        keys,
        # Replays are faithful: the streaming-aggregate block persisted next
        # to the raw outcome table is re-attached (``None`` for a document
        # written before the block existed).
        decode=lambda document: replace(
            from_json(UniverseRepResult, document["rep"]),
            aggregates=document.get("aggregates"),
        ),
        execute=execute,
        encode=encode,
        topology=spec.topology,
    )
    return UniverseResult(
        spec=spec,
        seed=int(seed),
        repetitions=int(repetitions),
        reps=tuple(reps),
        replayed=replayed,
    )
