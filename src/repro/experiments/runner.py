"""Run single sessions and paired fast-vs-normal comparisons.

The paper's comparisons are *paired*: both algorithms are evaluated on the
same overlay topologies, bandwidth assignments and churn schedules.
:func:`run_pair` guarantees this by building both sessions from the same
:class:`~repro.streaming.config.SessionConfig` (differing only in the
``algorithm`` field), which -- thanks to the named random streams of
:class:`repro.sim.rng.RandomStreams` -- reproduces identical random draws
for everything outside the algorithm itself.

When a :class:`~repro.experiments.store.ResultStore` is supplied,
:func:`run_pair` reads through it: a stored pair for the same
configuration, seed and code version is replayed from disk instead of
simulated, and fresh results are persisted for the next caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.store import BaseResultStore, pair_fingerprint, persist_net_document
from repro.metrics.report import ComparisonRow, compare_metrics
from repro.streaming.config import SessionConfig, SessionResult

__all__ = ["run_single", "PairedRunResult", "run_pair"]


def run_single(config: SessionConfig) -> SessionResult:
    """Build and run one session (the simulator is imported when one runs)."""
    from repro.streaming.session import SwitchSession

    return SwitchSession(config).run()


@dataclass(frozen=True)
class PairedRunResult:
    """Results of one paired comparison (same seed, both algorithms)."""

    normal: SessionResult
    fast: SessionResult

    @property
    def n_nodes(self) -> int:
        """Overlay size of the paired runs."""
        return self.normal.config.n_nodes

    def comparison(self, label: Optional[str] = None) -> ComparisonRow:
        """Fast-vs-normal comparison row (Figure 6/7-style quantities)."""
        label = label if label is not None else str(self.n_nodes)
        return compare_metrics(label, self.normal.metrics, self.fast.metrics)

    @property
    def switch_time_reduction(self) -> float:
        """The paper's headline metric: relative switch-time reduction."""
        return self.comparison().switch_time_reduction


def run_pair(config: SessionConfig, *, store: Optional[BaseResultStore] = None) -> PairedRunResult:
    """Run the normal and the fast switch algorithm on identical random draws.

    The ``algorithm`` field of ``config`` is ignored; both variants are run.

    Parameters
    ----------
    config:
        Shared configuration of both runs (seed included).
    store:
        Optional persistent result store.  On a hit the stored pair is
        returned without simulating; on a miss the pair is simulated and
        persisted.  A replay-only store raises
        :class:`~repro.experiments.store.MissingResultError` on a miss.
    """
    key: Optional[str] = None
    if store is not None:
        key = pair_fingerprint(config)
        cached = store.load_pair(key)
        if cached is not None:
            return PairedRunResult(normal=cached[0], fast=cached[1])
        if store.replay_only:
            raise store.missing(key)
    normal_result = run_single(config.with_algorithm("normal"))
    fast_result = run_single(config.with_algorithm("fast"))
    pair = PairedRunResult(normal=normal_result, fast=fast_result)
    if store is not None and key is not None:
        store.save_pair(key, config, normal_result, fast_result)
        persist_net_document(store, config.topology)
    return pair
