"""Parallel sweep execution: deterministic fan-out of ``(size, repetition)`` pairs.

A paired size sweep is embarrassingly parallel: every ``(size,
repetition)`` pair is one independent paired simulation whose entire
randomness is fixed by its own :class:`SessionConfig` (repetition ``k``
uses ``seed + k``).  :class:`ParallelSweepRunner` exploits this by mapping
the pairs over the shared :class:`~repro.dist.pool.WorkerPool` (in-process
when ``workers == 1``) and aggregating in deterministic task order, which
makes the parallel result **bit-identical** to the serial one -- the
scheduling of workers can change only *when* a pair is computed, never
*what* it computes or how the aggregation orders it.

With a :class:`~repro.experiments.store.ResultStore` attached the runner is
also *incremental*: stored pairs are replayed from disk, only missing pairs
are simulated (in parallel), and both the pairs and the aggregated
:class:`~repro.experiments.sweeps.SizeSweepResult` are persisted for the
next invocation, which then completes without running any simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence

from repro.experiments.config import make_session_config
from repro.experiments.runner import PairedRunResult, run_pair, run_pairs
from repro.experiments.store import (
    BaseResultStore,
    pair_fingerprint,
    sweep_fingerprint,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.experiments.sweeps import SizeSweepResult, SweepPoint, _aggregate
from repro.streaming.config import SessionConfig

__all__ = ["SweepTask", "build_sweep_tasks", "ParallelSweepRunner"]


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a paired run at one ``(size, repetition)``.

    Attributes
    ----------
    index:
        Position in the deterministic task order (sizes outer, repetitions
        inner) -- the order aggregation consumes results in.
    n_nodes:
        Overlay size of this pair.
    repetition:
        Repetition number; the task's seed is ``base seed + repetition``.
    config:
        The fully resolved session configuration (seed included).
    """

    index: int
    n_nodes: int
    repetition: int
    config: SessionConfig


def build_sweep_tasks(
    sizes: Sequence[int],
    *,
    dynamic: bool = False,
    seed: int = 0,
    repetitions: int = 1,
    overrides: Optional[Mapping[str, object]] = None,
) -> List[SweepTask]:
    """The deterministic task list of one sweep (sizes outer, repetitions inner)."""
    overrides = dict(overrides or {})
    tasks: List[SweepTask] = []
    for n_nodes in sizes:
        for repetition in range(repetitions):
            config = make_session_config(
                int(n_nodes),
                seed=seed + repetition,
                dynamic=dynamic,
                record_rounds=False,
                **overrides,
            )
            tasks.append(
                SweepTask(
                    index=len(tasks),
                    n_nodes=int(n_nodes),
                    repetition=repetition,
                    config=config,
                )
            )
    return tasks


class ParallelSweepRunner:
    """Executes size sweeps, optionally in parallel and through a store.

    Parameters
    ----------
    workers:
        Maximum number of worker processes; ``1`` runs everything serially
        in the calling process (no process is started).
    store:
        Optional persistent result store read before and written after
        execution.  Store I/O always happens in the parent process, so a
        replay-only store or a store on slow shared storage behaves
        predictably.
    """

    def __init__(self, workers: int = 1, store: Optional[BaseResultStore] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.store = store

    def run(
        self,
        sizes: Sequence[int],
        *,
        dynamic: bool = False,
        seed: int = 0,
        repetitions: int = 1,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> SizeSweepResult:
        """Run (or replay) one paired size sweep.

        The result is bit-identical for any ``workers`` value and for any
        mix of stored and freshly computed pairs, because pairs are seeded
        independently and aggregated in deterministic task order.
        """
        overrides = dict(overrides or {})
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        tasks = build_sweep_tasks(
            sizes, dynamic=dynamic, seed=seed, repetitions=repetitions, overrides=overrides
        )
        # Pair keys hash the fully *resolved* configs, and folding them into
        # the sweep key keeps both store granularities in lockstep: anything
        # that would change a pair's identity also retires the aggregate.
        pair_keys = [pair_fingerprint(task.config) for task in tasks]
        sweep_key: Optional[str] = None
        if self.store is not None:
            sweep_key = sweep_fingerprint(
                sizes, dynamic=dynamic, seed=seed, repetitions=repetitions,
                overrides=overrides, pair_keys=pair_keys,
            )
            stored = self.store.load(sweep_key, "sweep")
            if stored is not None:
                return sweep_from_dict(stored["sweep"])

        # Each pair is persisted as soon as it completes: an interrupted
        # long sweep keeps its finished pairs and the rerun only simulates
        # the remainder.
        results = run_pairs(
            [task.config for task in tasks],
            pair_keys,
            store=self.store,
            execute=lambda pending: self._execute([tasks[i] for i in pending]),
        )

        points: List[SweepPoint] = []
        for position, n_nodes in enumerate(sizes):
            group = tasks[position * repetitions:(position + 1) * repetitions]
            points.append(_aggregate(int(n_nodes), [results[t.index] for t in group]))
        sweep = SizeSweepResult(dynamic=bool(dynamic), seed=int(seed), points=tuple(points))

        if self.store is not None and sweep_key is not None:
            self.store.save(sweep_key, {
                "kind": "sweep",
                "params": {
                    "sizes": [int(s) for s in sizes],
                    "dynamic": bool(dynamic),
                    "seed": int(seed),
                    "repetitions": int(repetitions),
                    "overrides": {k: str(v) for k, v in sorted(overrides.items())},
                },
                "sweep": sweep_to_dict(sweep),
            })
        return sweep

    # ------------------------------------------------------------------ #
    def _execute(self, pending: Sequence[SweepTask]) -> Iterator[PairedRunResult]:
        """Yield the pending tasks' results in task order as they complete."""
        import repro.streaming.session  # noqa: F401 - forked workers inherit the simulator
        from repro.dist.pool import WorkerPool

        return WorkerPool(self.workers).map(run_pair, [task.config for task in pending])
