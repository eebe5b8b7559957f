"""Network-size sweeps (the workload behind Figures 6--8 and 10--12).

A size sweep runs a paired fast-vs-normal comparison for every overlay size
in the list.  Figures 6, 7 and 8 (and their dynamic counterparts 10, 11,
12) all plot quantities of the *same* sweep, so the sweep result is shared
at two levels:

* **in-process** -- store-less sweeps are memoised (serial or parallel;
  ``workers`` is not part of the key since results are bit-identical) so
  the three figure generators (and the three benchmark modules) of one
  parameterisation share one set of simulations;
* **on disk** -- pass ``store=`` (a
  :class:`~repro.experiments.store.ResultStore`) and every ``(size,
  repetition)`` pair plus the aggregated sweep is persisted; repeated
  invocations, figure regeneration and the benchmarks then replay from
  disk instead of simulating.

Pass ``workers > 1`` to fan the ``(size, repetition)`` pairs out over the
shared :class:`~repro.dist.pool.WorkerPool`; the results are bit-identical
to the serial path because every pair is independently and
deterministically seeded with ``seed + repetition`` and aggregation
consumes the pairs in fixed size-major order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.config import make_session_config
from repro.experiments.runner import PairedRunResult, run_pair, run_pairs
from repro.experiments.store import (
    BaseResultStore,
    pair_fingerprint,
    sweep_fingerprint,
)
from repro.metrics.report import reduction_ratio
from repro.records import from_json, to_json

__all__ = ["SweepPoint", "SizeSweepResult", "run_size_sweep", "clear_sweep_cache"]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated results for one overlay size (averaged over repetitions).

    The paper defines a peer's *switch time* as the time until it has
    prepared the new source's startup window (Section 5.2: metric 1 is the
    average preparing time of S2, and metric 2 -- the reduction ratio -- is
    computed from it).  The switch-time columns are therefore *derived*
    from the prepare times rather than stored separately; see
    :attr:`normal_switch_time` and :attr:`fast_switch_time`.
    """

    n_nodes: int
    normal_finish_old: float
    fast_finish_old: float
    fast_prepare_new: float
    normal_prepare_new: float
    reduction: float
    normal_overhead: float
    fast_overhead: float
    repetitions: int

    @property
    def normal_switch_time(self) -> float:
        """Average switch time of the normal algorithm.

        Identical to :attr:`normal_prepare_new` by the paper's definition
        (the switch time *is* the preparing time of the new source).
        """
        return self.normal_prepare_new

    @property
    def fast_switch_time(self) -> float:
        """Average switch time of the fast algorithm (= :attr:`fast_prepare_new`)."""
        return self.fast_prepare_new

    def as_row(self) -> Dict[str, float | int]:
        """Dictionary form used by reports and the CLI.

        The derived switch-time columns are included for convenience even
        though they duplicate the prepare-time columns by definition.
        """
        return {
            "n_nodes": self.n_nodes,
            "normal_finish_old": self.normal_finish_old,
            "fast_finish_old": self.fast_finish_old,
            "fast_prepare_new": self.fast_prepare_new,
            "normal_prepare_new": self.normal_prepare_new,
            "normal_switch_time": self.normal_switch_time,
            "fast_switch_time": self.fast_switch_time,
            "reduction": self.reduction,
            "normal_overhead": self.normal_overhead,
            "fast_overhead": self.fast_overhead,
            "repetitions": self.repetitions,
        }


@dataclass(frozen=True)
class SizeSweepResult:
    """All sweep points of one size sweep, in ascending size order."""

    dynamic: bool
    seed: int
    points: Tuple[SweepPoint, ...]

    def rows(self) -> List[Dict[str, float | int]]:
        """One dictionary per size (for table printing)."""
        return [point.as_row() for point in self.points]

    def series(self, field: str) -> List[Tuple[float, float]]:
        """``(n_nodes, value)`` series of any :class:`SweepPoint` field."""
        return [(float(p.n_nodes), float(getattr(p, field))) for p in self.points]

    def point_for(self, n_nodes: int) -> SweepPoint:
        """The sweep point of a given size (``KeyError`` if absent)."""
        for point in self.points:
            if point.n_nodes == n_nodes:
                return point
        raise KeyError(n_nodes)


def _aggregate(n_nodes: int, pairs: Sequence[PairedRunResult]) -> SweepPoint:
    """Average the paired results of all repetitions at one size."""

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    normal_prepare = mean([p.normal.metrics.avg_prepare_new for p in pairs])
    fast_prepare = mean([p.fast.metrics.avg_prepare_new for p in pairs])
    return SweepPoint(
        n_nodes=n_nodes,
        normal_finish_old=mean([p.normal.metrics.avg_finish_old for p in pairs]),
        fast_finish_old=mean([p.fast.metrics.avg_finish_old for p in pairs]),
        fast_prepare_new=fast_prepare,
        normal_prepare_new=normal_prepare,
        reduction=reduction_ratio(normal_prepare, fast_prepare),
        normal_overhead=mean([p.normal.overhead_ratio for p in pairs]),
        fast_overhead=mean([p.fast.overhead_ratio for p in pairs]),
        repetitions=len(pairs),
    )


#: In-process memo of store-less sweeps (bounded LRU).  ``workers`` is
#: deliberately *not* part of the key: the parallel path is bit-identical
#: to the serial one, so figures 6/7/8 (and 10/11/12) share one sweep per
#: parameterisation regardless of how each generator was invoked.
_MEMO_LIMIT = 32
_sweep_memo: "OrderedDict[tuple, SizeSweepResult]" = OrderedDict()


def run_size_sweep(
    sizes: Sequence[int],
    *,
    dynamic: bool = False,
    seed: int = 0,
    repetitions: int = 1,
    overrides: Optional[Dict[str, object]] = None,
    workers: int = 1,
    store: Optional[BaseResultStore] = None,
) -> SizeSweepResult:
    """Run (or fetch from cache/store) a paired size sweep.

    Parameters
    ----------
    sizes:
        Overlay sizes, e.g. :data:`repro.experiments.config.PAPER_SWEEP_SIZES`.
    dynamic:
        Enable the paper's churn model (Figures 10--12) or not (6--8).
    seed:
        Base seed; repetition ``k`` uses ``seed + k``.
    repetitions:
        Independent repetitions per size (the paper averages over several
        traces per size; use >= 3 for paper-grade numbers).
    overrides:
        Extra :class:`SessionConfig` overrides applied to every run.
    workers:
        Worker-pool width for the ``(size, repetition)`` fan-out; ``1``
        (the default) runs serially in-process.  Results are bit-identical
        either way.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`; completed
        pairs and the aggregated sweep are persisted there and replayed on
        subsequent invocations.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    overrides = dict(overrides or {})
    memo_key = None
    if store is None:
        # Persistence supersedes the in-process memo: the store already
        # deduplicates across invocations (and processes).
        memo_key = (tuple(int(s) for s in sizes), bool(dynamic), int(seed),
                    int(repetitions), tuple(sorted(overrides.items())))
        cached = _sweep_memo.get(memo_key)
        if cached is not None:
            _sweep_memo.move_to_end(memo_key)
            return cached

    # Size-major: repetition k of every size uses seed + k, and the pairs of
    # one size are consecutive -- the order aggregation consumes them in.
    configs = [
        make_session_config(int(n_nodes), seed=seed + repetition, dynamic=dynamic,
                            record_rounds=False, **overrides)
        for n_nodes in sizes
        for repetition in range(repetitions)
    ]
    # Pair keys hash the fully *resolved* configs, and folding them into
    # the sweep key keeps both store granularities in lockstep: anything
    # that would change a pair's identity also retires the aggregate.
    pair_keys = [pair_fingerprint(config) for config in configs]
    sweep_key: Optional[str] = None
    if store is not None:
        sweep_key = sweep_fingerprint(
            sizes, dynamic=dynamic, seed=seed, repetitions=repetitions,
            overrides=overrides, pair_keys=pair_keys,
        )
        stored = store.load(sweep_key, "sweep")
        if stored is not None:
            return from_json(SizeSweepResult, stored["sweep"])

    def execute(pending: List[int]) -> Iterator[PairedRunResult]:
        import repro.streaming.session  # noqa: F401 - forked workers inherit the simulator
        from repro.dist.pool import WorkerPool

        return WorkerPool(workers).map(run_pair, [configs[i] for i in pending])

    # Each pair is persisted as soon as it completes: an interrupted long
    # sweep keeps its finished pairs and the rerun only simulates the rest.
    pairs = run_pairs(configs, pair_keys, store=store, execute=execute)
    sweep = SizeSweepResult(dynamic=bool(dynamic), seed=int(seed), points=tuple(
        _aggregate(int(n_nodes), pairs[position * repetitions:(position + 1) * repetitions])
        for position, n_nodes in enumerate(sizes)
    ))

    if sweep_key is not None:
        store.save(sweep_key, {
            "kind": "sweep",
            "params": {
                "sizes": [int(s) for s in sizes],
                "dynamic": bool(dynamic),
                "seed": int(seed),
                "repetitions": int(repetitions),
                "overrides": {k: str(v) for k, v in sorted(overrides.items())},
            },
            "sweep": to_json(sweep),
        })
    if memo_key is not None:
        _sweep_memo[memo_key] = sweep
        if len(_sweep_memo) > _MEMO_LIMIT:
            _sweep_memo.popitem(last=False)
    return sweep


def clear_sweep_cache() -> None:
    """Drop all in-process cached sweeps (used by tests)."""
    _sweep_memo.clear()
