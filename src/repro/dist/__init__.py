"""The execution substrate: one worker pool for sweeps, workloads and universes.

Every parallel run in ``repro`` is the same shape -- independent,
deterministically seeded units reassembled in a fixed order -- and all of
them fan out here (``--workers N`` on any command; ``workers == 1`` runs
the same units in the calling process and starts nothing):

* :mod:`repro.dist.pool` -- :class:`~repro.dist.pool.WorkerPool`, the only
  place that starts processes: a long-lived pool that reuses workers
  across tasks, tracks per-task heartbeats, retries crashed tasks a
  bounded number of times and names the offending shard/channel when it
  gives up.  Its ordered lazy :meth:`~repro.dist.pool.WorkerPool.map` is
  what :func:`~repro.experiments.sweeps.run_size_sweep` and
  :func:`~repro.workloads.runner.run_workload` call;
* :mod:`repro.dist.plan` -- :class:`~repro.dist.plan.ShardPlan`, the
  deterministic partition of a universe run's ``repetitions x channels``
  work units into shards;
* :mod:`repro.dist.journal` -- the write-ahead checkpoint journal that
  lets an interrupted ``repro universe run`` resume without recomputing
  finished shards, bit-identically to an uninterrupted run;
* :mod:`repro.dist.progress` -- :class:`~repro.dist.progress.
  ProgressReporter`, the throttled live status line (shards done/total,
  ETA, per-worker heartbeat age) behind ``repro universe run
  --progress``;
* :mod:`repro.dist.runner` -- the shard executor gluing plan, pool and
  journal together underneath :func:`~repro.channels.runner.run_universe`
  (``repro universe run --workers W [--shards N]``).

Results are **bit-identical** (at store-document level) to the serial
path for any shard/worker combination, under both compute engines -- the
property ``tests/test_execution_backends.py``, the dist test suite and
the CI ``dist`` smoke job pin down.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "Shard": "repro.dist.plan",
    "ShardPlan": "repro.dist.plan",
    "ShardUnit": "repro.dist.plan",
    "ShardJournal": "repro.dist.journal",
    "ShardExecutionError": "repro.dist.pool",
    "ShardFailure": "repro.dist.pool",
    "WorkerPool": "repro.dist.pool",
    "ProgressReporter": "repro.dist.progress",
    "ShardedExecutor": "repro.dist.runner",
    "ShardResult": "repro.dist.runner",
})
