"""Run single sessions and paired fast-vs-normal comparisons.

The paper's comparisons are *paired*: both algorithms are evaluated on the
same overlay topologies, bandwidth assignments and churn schedules.
:func:`run_pair` guarantees this by building both sessions from the same
:class:`~repro.streaming.config.SessionConfig` (differing only in the
``algorithm`` field), which -- thanks to the named random streams of
:class:`repro.sim.rng.RandomStreams` -- reproduces identical random draws
for everything outside the algorithm itself.

When a :class:`~repro.experiments.store.ResultStore` is supplied,
:func:`run_pairs` reads through it (:func:`~repro.experiments.store.
replay_or_execute`): a stored pair for the same configuration, seed and
code version is replayed from disk instead of simulated, and fresh results
are persisted for the next caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.experiments.store import (
    BaseResultStore,
    config_to_dict,
    pair_fingerprint,
    replay_or_execute,
    session_result_to_dict,
)
from repro.metrics.report import ComparisonRow, compare_metrics
from repro.records import from_json
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


def _simulate_pair(config: SessionConfig) -> PairedRunResult:
    return PairedRunResult(
        normal=run_single(config.with_algorithm("normal")),
        fast=run_single(config.with_algorithm("fast")),
    )


def run_pairs(
    configs: Sequence[SessionConfig],
    keys: Sequence[str],
    *,
    store: Optional[BaseResultStore] = None,
    execute: Optional[Callable[[List[int]], Iterable[PairedRunResult]]] = None,
) -> List[PairedRunResult]:
    """The pairs of ``configs`` (which share a topology), replayed from
    ``store`` under their ``pair-*`` ``keys`` where it holds them.

    ``execute`` produces the missing ones (default: simulate them here, one
    after the other); the sweep runner hands in its worker pool.
    """
    pairs, _ = replay_or_execute(
        store,
        "pair",
        keys,
        decode=lambda document: PairedRunResult(
            normal=from_json(SessionResult, document["normal"]),
            fast=from_json(SessionResult, document["fast"]),
        ),
        execute=execute or (lambda pending: (_simulate_pair(configs[i]) for i in pending)),
        encode=lambda index, pair, _net_key: {
            "config": config_to_dict(configs[index]),
            "normal": session_result_to_dict(pair.normal),
            "fast": session_result_to_dict(pair.fast),
        },
        topology=configs[0].topology,
    )
    return pairs


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
    return run_pairs([config], [pair_fingerprint(config)], store=store)[0]
