"""The sharded executor: plan + worker pool + journal.

:class:`ShardedExecutor` is how :func:`~repro.channels.runner.run_universe`
uses the pool: every universe run with ``workers > 1`` or an explicit
shard count goes through it.  What it adds on top of
:class:`~repro.dist.pool.WorkerPool`:

* **O(shard) memory.**  Workers never ship per-peer samples to the
  parent: a shard's payload is the plain-JSON documents of its units
  (:func:`~repro.channels.universe.run_channel_unit`), and the parent
  folds the units of a repetition in ascending channel order
  (:func:`~repro.channels.universe.fold_units`; deterministic regardless
  of completion order).
* **Checkpointed progress.**  Every finished shard is journaled
  (:class:`~repro.dist.journal.ShardJournal`) before it is folded into
  the run, so an interrupted run resumes by replaying journaled shards
  and re-simulating only the rest -- bit-identically, because shard
  payloads are plain JSON with exact float round trips.
* **Crash tolerance.**  Shards execute on a long-lived
  :class:`~repro.dist.pool.WorkerPool` with per-shard heartbeats and
  bounded retry.

Workers re-derive each repetition's :class:`~repro.channels.universe.
UniversePlan` locally from ``(spec, rep_seed)`` -- planning is a pure
function -- and memoise it for the lifetime of the worker process, so
shard payloads stay tiny and reusing workers across shards amortises the
planning cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.channels.universe import (
    UniverseRepResult,
    UniverseSpec,
    fold_units,
    plan_universe,
    run_channel_unit,
)
from repro.dist.journal import ShardJournal
from repro.dist.plan import ShardPlan, ShardUnit
from repro.dist.pool import WorkerPool
from repro.dist.progress import ProgressReporter
from repro.obs.telemetry import get_telemetry

__all__ = ["ShardResult", "ShardedExecutor"]


@dataclass(frozen=True)
class ShardResult:
    """One executed shard: the documents of its units, by ``(rep_seed, channel)``.

    Built by :meth:`from_payload` from the plain-JSON payload that is
    both what workers return over their result pipe and what the journal
    checkpoints, so a replayed shard is byte-for-byte the shard that ran.
    """

    shard_id: int
    #: ``(rep_seed, channel) -> unit document`` (see
    #: :func:`~repro.channels.universe.run_channel_unit`).  A journal record
    #: written before units carried their ``"aggregates"`` is unusable: its
    #: units are left out, and the shard re-simulates.
    units: Mapping[Tuple[int, int], Mapping[str, Any]]

    @staticmethod
    def from_payload(shard_id: int, payload: Mapping[str, Any]) -> "ShardResult":
        """Parse a worker's shard payload (``{"units": [...]}``)."""
        return ShardResult(
            shard_id=int(shard_id),
            units={
                (int(unit["rep_seed"]), int(unit["channel"])): unit
                for unit in payload["units"]
                if "aggregates" in unit
            },
        )


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
#: Per-worker plan memo: planning is pure in ``(spec, rep_seed)`` and
#: workers live across shards, so repeated reps plan once per process.
_PLAN_MEMO: Dict[Tuple[str, int], Any] = {}
_PLAN_MEMO_LIMIT = 128


def _planned(spec: UniverseSpec, rep_seed: int) -> Any:
    memo_key = (json.dumps(spec.to_dict(), sort_keys=True), int(rep_seed))
    plan = _PLAN_MEMO.get(memo_key)
    if plan is None:
        if len(_PLAN_MEMO) >= _PLAN_MEMO_LIMIT:
            _PLAN_MEMO.clear()
        plan = plan_universe(spec, rep_seed)
        _PLAN_MEMO[memo_key] = plan
    return plan


def _run_shard_task(
    payload: Mapping[str, Any], heartbeat: Callable[[str], None]
) -> Dict[str, Any]:
    """Worker entry point: run one shard's units, return them as JSON.

    Module-level so it pickles; heartbeats once per unit with a
    ``rep<seed>/ch<channel>`` label (what the failure summary surfaces).
    """
    spec = UniverseSpec.from_dict(payload["spec"])
    units: List[Dict[str, Any]] = []
    for unit in payload["units"]:
        heartbeat(f"rep{unit.rep_seed}/ch{unit.channel}")
        units.append(
            run_channel_unit(
                _planned(spec, unit.rep_seed), unit.channel,
                compute_engine=payload["compute_engine"],
            )
        )
    return {"units": units}


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class ShardedExecutor:
    """Execute the pending repetitions of a :class:`ShardPlan`.

    Parameters
    ----------
    plan:
        The full-run shard plan (built over *all* repetition seeds -- see
        :class:`~repro.dist.plan.ShardPlan` -- never the pending subset).
    workers:
        Worker process count for the :class:`~repro.dist.pool.WorkerPool`.
    compute_engine:
        Simulation core for the workers (store-key-agnostic by contract).
    journal_root:
        Directory holding per-run checkpoint journals; ``None`` disables
        checkpointing (no store to resume against).
    max_retries / fault_hook:
        Forwarded to the pool (crash tolerance / fault injection).
    after_shard:
        Optional parent-side callback ``(shard_id) -> None`` invoked after
        each shard is journaled -- the seam the interrupt/resume tests use
        to kill the run at a precise point.
    progress:
        Optional :class:`~repro.dist.progress.ProgressReporter` fed the
        run's shard frontier (total / journal-replayed / per-completion)
        so it can print a live status line; ``None`` stays silent.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        workers: int = 1,
        compute_engine: Optional[str] = None,
        journal_root: Optional[Path] = None,
        max_retries: int = 1,
        fault_hook: Optional[Callable[[int, int], None]] = None,
        after_shard: Optional[Callable[[int], None]] = None,
        progress: Optional["ProgressReporter"] = None,
    ) -> None:
        self.plan = plan
        self.pool = WorkerPool(workers, max_retries=max_retries, fault_hook=fault_hook)
        self.compute_engine = compute_engine
        self.journal_root = Path(journal_root) if journal_root is not None else None
        self.after_shard = after_shard
        self.progress = progress
        #: How many shards were replayed from the journal last run.
        self.journal_replayed: int = 0

    # ------------------------------------------------------------------ #
    def _open_journal(self) -> Optional[ShardJournal]:
        if self.journal_root is None:
            return None
        run_key = self.plan.fingerprint()
        manifest = {
            "spec": self.plan.spec.to_dict(),
            "rep_seeds": list(self.plan.rep_seeds),
            "n_shards": self.plan.n_shards,
        }
        return ShardJournal.open(self.journal_root, run_key, manifest)

    # ------------------------------------------------------------------ #
    def execute(self, pending_seeds: Sequence[int]) -> Iterator[UniverseRepResult]:
        """Simulate the pending repetitions, yielding them in seed order.

        Repetitions are yielded as soon as all their units are available
        (journaled or freshly computed), in ``pending_seeds`` order --
        exactly the contract :func:`repro.experiments.store.
        replay_or_execute` expects, so the caller persists each one before
        the next shard even finishes.  On full consumption the journal is
        discarded.
        """
        pending = [int(seed) for seed in pending_seeds]
        if not pending:
            return
        unknown = set(pending) - set(self.plan.rep_seeds)
        if unknown:
            raise ValueError(f"seeds not in plan: {sorted(unknown)}")
        pending_set = set(pending)
        n_channels = self.plan.spec.n_channels

        # The units each shard must deliver for *this* run.
        needed: Dict[int, List[ShardUnit]] = {}
        for shard in self.plan.shards:
            units = [u for u in shard.units if u.rep_seed in pending_set]
            if units:
                needed[shard.shard_id] = units

        journal = self._open_journal()
        journaled: Dict[int, ShardResult] = {}
        self.journal_replayed = 0
        if journal is not None:
            for shard_id, payload in journal.completed().items():
                if shard_id not in needed:
                    continue
                replayed = ShardResult.from_payload(shard_id, payload)
                # A record is only usable if it covers every unit this
                # run still needs from the shard (it may legally cover
                # more: repetitions persisted since it was written).
                if all((u.rep_seed, u.channel) in replayed.units for u in needed[shard_id]):
                    journaled[shard_id] = replayed
                    self.journal_replayed += 1

        obs = get_telemetry()
        if obs.enabled:
            obs.count("dist.shards.replayed", self.journal_replayed)
            if self.journal_replayed:
                obs.event(
                    "dist.journal_replay",
                    shards=self.journal_replayed,
                    needed=len(needed),
                )

        tasks: Dict[int, Dict[str, Any]] = {
            shard_id: {
                "spec": self.plan.spec.to_dict(),
                "compute_engine": self.compute_engine,
                "units": units,
            }
            for shard_id, units in needed.items()
            if shard_id not in journaled
        }
        if obs.enabled:
            obs.count("dist.shards.computed", len(tasks))
        if self.progress is not None:
            self.progress.begin(
                total=len(needed), replayed=self.journal_replayed, pool=self.pool
            )

        # Assemble repetitions incrementally: a rep is ready once all its
        # channels are collected; yield strictly in pending-seed order.
        collected: Dict[Tuple[int, int], Mapping[str, Any]] = {}
        remaining: Dict[int, int] = {seed: n_channels for seed in pending}
        emitted = 0

        def absorb(result: ShardResult) -> None:
            for unit in needed[result.shard_id]:
                unit_key = (unit.rep_seed, unit.channel)
                if unit_key not in collected:
                    collected[unit_key] = result.units[unit_key]
                    remaining[unit.rep_seed] -= 1

        def drain(limit: int) -> Iterator[UniverseRepResult]:
            nonlocal emitted
            while emitted < limit and remaining[pending[emitted]] == 0:
                rep_seed = pending[emitted]
                # Units are popped as they fold, so parent memory stays
                # bounded by the in-flight shard frontier, not the run.
                # ``n_zaps`` / ``surfers`` live on the zap plan: planning is
                # pure and cheap enough to repeat once per repetition here.
                yield fold_units(
                    plan_universe(self.plan.spec, rep_seed),
                    (collected.pop((rep_seed, channel)) for channel in range(n_channels)),
                )
                emitted += 1

        # The consumer (``replay_or_execute``'s zip) never advances this
        # generator past its last yield, so everything that must happen on
        # success -- discarding the journal, tearing the pool down -- has
        # to precede the final repetition.  Hold the last one back until
        # the epilogue has run.
        hold_back = len(pending) - 1

        for result in journaled.values():
            absorb(result)
        yield from drain(hold_back)

        # Close the pool generator deterministically on any exit -- an
        # exception from ``after_shard`` (the interrupt seam) or an
        # abandoned consumer would otherwise leave worker teardown to GC.
        pool_run = self.pool.run(_run_shard_task, tasks)
        try:
            for shard_id, payload in pool_run:
                result = ShardResult.from_payload(shard_id, payload)
                if journal is not None:
                    journal.record(shard_id, payload)
                if self.progress is not None:
                    self.progress.shard_done(shard_id)
                if self.after_shard is not None:
                    self.after_shard(shard_id)
                absorb(result)
                yield from drain(hold_back)
        finally:
            pool_run.close()
            if self.progress is not None:
                self.progress.finish()

        if journal is not None:
            journal.discard()
        yield from drain(len(pending))
