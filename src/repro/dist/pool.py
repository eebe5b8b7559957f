"""The one process pool: long-lived, crash-tolerant workers.

:class:`WorkerPool` is the only place in ``repro`` that starts processes.
Sweeps, workloads and universes all fan out through it: :meth:`WorkerPool.
map` is the ordered lazy map the sweep and workload runners use, and
:meth:`WorkerPool.run` is the shard-level primitive underneath it that
:class:`~repro.dist.runner.ShardedExecutor` drives directly.  A pool keeps
``W`` worker processes alive for the whole run and feeds them tasks from a
parent-side queue: workers amortise interpreter/numpy start-up over many
tasks, and the parent always knows exactly which task each worker is
executing (tasks are assigned to a specific worker, never pulled from a
shared queue), which is what makes crash accounting exact.

Reliability model
-----------------
* **One result pipe per worker** -- a worker is the only writer of its
  pipe, so a process that dies mid-message can never wedge its siblings
  (a shared queue's write lock would), and its death *is* an event: the
  pipe reaches end-of-file and the parent fails or retries the shard at
  once, however busy the other workers keep it.
* **Per-shard heartbeat** -- workers post a heartbeat message before every
  work unit; :meth:`WorkerPool.last_heartbeat` exposes the latest label
  (e.g. ``rep12/ch3``) and timestamp per shard, and the failure summary
  names it when a shard dies mid-unit.
* **Bounded retry** -- a shard whose worker raised or whose process died
  is re-queued up to ``max_retries`` times (on a respawned worker when the
  process is gone).  Duplicate results from a retried shard are dropped.
* **Failure summary** -- when retries are exhausted the pool raises
  :class:`ShardExecutionError` carrying one :class:`ShardFailure` per
  attempt, each naming the shard, the last heartbeat (the offending
  channel) and the error.

Fault injection
---------------
``fault_hook`` is called *inside the worker process* as
``fault_hook(worker_id, shard_id)`` immediately before a shard executes.
The test suite injects crashes (``os._exit``) and exceptions through it;
production runs leave it ``None``.  The hook must be picklable
(module-level function).
"""

from __future__ import annotations

import logging
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.telemetry import get_telemetry

__all__ = ["ShardFailure", "ShardExecutionError", "WorkerPool"]

_LOG = logging.getLogger("repro.dist.pool")

#: A task function: ``task_fn(payload, heartbeat)`` where ``heartbeat`` is
#: a ``Callable[[str], None]`` the task should invoke per work unit.
TaskFn = Callable[[Any, Callable[[str], None]], Any]


def _apply_task(payload: Tuple[Callable[[Any], Any], Any], heartbeat: Any) -> Any:
    """:meth:`WorkerPool.map`'s task: call the mapped function on one item."""
    function, item = payload
    return function(item)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt (part of the failure summary)."""

    shard_id: int
    attempt: int
    worker_id: int
    error: str
    last_heartbeat: str
    heartbeat_age_s: Optional[float] = None

    def describe(self) -> str:
        """One-line human summary."""
        where = f" at {self.last_heartbeat}" if self.last_heartbeat else ""
        if self.heartbeat_age_s is not None:
            where += f" (last heartbeat {self.heartbeat_age_s:.1f}s ago)"
        return (
            f"shard {self.shard_id} attempt {self.attempt} on worker "
            f"{self.worker_id}{where}: {self.error}"
        )


class ShardExecutionError(RuntimeError):
    """A shard exhausted its retries; carries the full failure summary."""

    def __init__(self, shard_id: int, failures: List[ShardFailure]) -> None:
        self.shard_id = shard_id
        self.failures = list(failures)
        lines = "\n  ".join(failure.describe() for failure in failures)
        super().__init__(
            f"shard {shard_id} failed after {len(failures)} attempt(s):\n  {lines}"
        )


def _worker_main(
    worker_id: int,
    task_fn: TaskFn,
    fault_hook: Optional[Callable[[int, int], None]],
    task_queue: "multiprocessing.Queue",
    results: Connection,
) -> None:
    """Worker loop: execute assigned shards until the ``None`` sentinel."""
    while True:
        task = task_queue.get()
        if task is None:
            return
        shard_id, payload = task

        def heartbeat(label: str, _shard_id: int = shard_id) -> None:
            results.send(("heartbeat", _shard_id, str(label), time.time()))

        heartbeat("start")
        try:
            if fault_hook is not None:
                fault_hook(worker_id, shard_id)
            result = task_fn(payload, heartbeat)
        except BaseException:  # noqa: BLE001 - forwarded to the parent verbatim
            results.send(("error", shard_id, traceback.format_exc()))
            continue
        results.send(("done", shard_id, result))


class _Worker:
    """Parent-side handle of one worker process (its own queue and pipe)."""

    def __init__(
        self,
        context: Any,
        worker_id: int,
        task_fn: TaskFn,
        fault_hook: Optional[Callable[[int, int], None]],
    ) -> None:
        self.worker_id = worker_id
        self.task_queue: "multiprocessing.Queue" = context.Queue()
        self.results, sender = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main,
            args=(worker_id, task_fn, fault_hook, self.task_queue, sender),
            daemon=True,
        )
        self.process.start()
        # The worker now holds the only write end: EOF means it is gone.
        sender.close()
        self.assigned: Optional[int] = None  # shard id in flight, if any

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Best-effort graceful stop, then terminate."""
        try:
            self.task_queue.put_nowait(None)
        except Exception:
            pass

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.results.close()


class WorkerPool:
    """Execute shards on long-lived worker processes with bounded retry.

    Parameters
    ----------
    workers:
        Worker process count (capped at the task count per run).
    max_retries:
        How many times a failed shard is retried before the pool gives up
        (``0`` fails fast on the first error).
    fault_hook:
        Optional picklable ``(worker_id, shard_id)`` callable executed in
        the worker before each shard -- the fault-injection seam used by
        the crash/retry tests.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_retries: int = 1,
        fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.fault_hook = fault_hook
        self._heartbeats: Dict[int, Tuple[str, float]] = {}
        self._worker_heartbeats: Dict[int, Tuple[str, float]] = {}
        self.failures: List[ShardFailure] = []

    # ------------------------------------------------------------------ #
    def last_heartbeat(self, shard_id: int) -> Optional[Tuple[str, float]]:
        """The latest ``(label, unix_time)`` heartbeat of one shard."""
        return self._heartbeats.get(shard_id)

    def last_worker_heartbeat(self, worker_id: int) -> Optional[Tuple[str, float]]:
        """The latest ``(label, unix_time)`` heartbeat posted by one worker."""
        return self._worker_heartbeats.get(worker_id)

    def worker_heartbeats(self) -> Dict[int, Tuple[str, float]]:
        """A snapshot of every worker's latest ``(label, unix_time)`` beat.

        The progress reporter polls this to render per-worker heartbeat
        ages; a copy is returned so callers never race the drain loop.
        """
        return dict(self._worker_heartbeats)

    # ------------------------------------------------------------------ #
    def map(
        self, function: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Any]:
        """Ordered lazy map: yield ``function(item)`` per item, in item order.

        Each result is yielded as soon as it and all its predecessors have
        completed, so a consumer can persist early results while later
        items still run.  ``workers == 1`` or a single item runs in the
        calling process (no worker is spawned); otherwise the items are
        tasks of :meth:`run` -- crash-tolerant, retried, heartbeat-tracked
        -- and ``function`` and the items must pickle.
        """
        if self.workers == 1 or len(items) <= 1:
            for item in items:
                yield function(item)
            return
        run = self.run(
            _apply_task, {index: (function, item) for index, item in enumerate(items)}
        )
        ready: Dict[int, Any] = {}
        emitted = 0
        try:
            for index, result in run:
                ready[index] = result
                while emitted in ready:
                    yield ready.pop(emitted)
                    emitted += 1
        finally:
            run.close()  # tear the workers down even if the consumer stops early

    def run(
        self, task_fn: TaskFn, tasks: Mapping[int, Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Execute every task, yielding ``(shard_id, result)`` on completion.

        Results arrive in completion order (callers needing determinism
        re-order by shard id).  Raises :class:`ShardExecutionError` when a
        shard exhausts its retries; always tears the workers down.
        """
        if not tasks:
            return
        obs = get_telemetry()
        context = multiprocessing.get_context()
        pending: List[Tuple[int, Any]] = [(int(k), v) for k, v in tasks.items()]
        attempts: Dict[int, int] = {shard_id: 0 for shard_id, _ in pending}
        shard_failures: Dict[int, List[ShardFailure]] = {}
        done: set = set()
        payloads: Dict[int, Any] = dict(pending)
        assigned_at: Dict[int, float] = {}
        fleet: List[_Worker] = []
        next_worker_id = 0

        def spawn(*, respawn: bool = False) -> _Worker:
            nonlocal next_worker_id
            worker = _Worker(context, next_worker_id, task_fn, self.fault_hook)
            next_worker_id += 1
            fleet.append(worker)
            if obs.enabled:
                name = "pool.worker_respawn" if respawn else "pool.worker_spawn"
                obs.event(name, tid=worker.worker_id, worker=worker.worker_id)
                obs.counter(name).inc()
            if respawn:
                _LOG.warning("respawned dead worker as worker %d", worker.worker_id)
            else:
                _LOG.debug("spawned worker %d", worker.worker_id)
            return worker

        def record_failure(worker: _Worker, shard_id: int, error: str) -> ShardFailure:
            label, _ = self._heartbeats.get(shard_id, ("", 0.0))
            beat = self._worker_heartbeats.get(worker.worker_id)
            age = round(time.time() - beat[1], 3) if beat is not None else None
            attempts[shard_id] += 1
            failure = ShardFailure(
                shard_id=shard_id,
                attempt=attempts[shard_id],
                worker_id=worker.worker_id,
                error=error,
                last_heartbeat=label,
                heartbeat_age_s=age,
            )
            shard_failures.setdefault(shard_id, []).append(failure)
            self.failures.append(failure)
            _LOG.warning("shard failure: %s", failure.describe())
            if obs.enabled:
                obs.event(
                    "pool.shard_failure",
                    tid=worker.worker_id,
                    shard=shard_id,
                    attempt=attempts[shard_id],
                    heartbeat=label,
                )
                obs.counter("pool.shard_failure").inc()
            return failure

        def retry_or_raise(shard_id: int) -> None:
            if attempts[shard_id] > self.max_retries:
                _LOG.error(
                    "shard %d exhausted %d retrie(s); giving up",
                    shard_id,
                    self.max_retries,
                )
                raise ShardExecutionError(shard_id, shard_failures[shard_id])
            _LOG.warning(
                "retrying shard %d (attempt %d of %d)",
                shard_id,
                attempts[shard_id] + 1,
                self.max_retries + 1,
            )
            if obs.enabled:
                obs.event("pool.shard_retry", shard=shard_id, attempt=attempts[shard_id] + 1)
                obs.counter("pool.shard_retry").inc()
            pending.append((shard_id, payloads[shard_id]))

        def bury(worker: _Worker) -> None:
            fleet.remove(worker)
            worker.kill()
            _LOG.warning(
                "worker %d died (assigned shard: %s)", worker.worker_id, worker.assigned
            )
            shard_id = worker.assigned
            if shard_id is not None and shard_id not in done:
                record_failure(worker, shard_id, "worker process died")
                retry_or_raise(shard_id)
            if pending or any(w.assigned is not None for w in fleet):
                spawn(respawn=True)

        try:
            for _ in range(min(self.workers, len(pending))):
                spawn()
            while len(done) < len(tasks):
                # Hand pending shards to idle live workers.
                for worker in fleet:
                    if not pending:
                        break
                    if worker.assigned is None and worker.alive():
                        shard_id, payload = pending.pop(0)
                        worker.assigned = shard_id
                        assigned_at[shard_id] = time.perf_counter()
                        worker.task_queue.put((shard_id, payload))
                # Block until some worker has a message -- or has died: a
                # dead worker's pipe is at EOF, which counts as readable.
                by_pipe = {worker.results: worker for worker in fleet}
                for pipe in wait(list(by_pipe)):
                    worker = by_pipe[pipe]
                    try:
                        message = pipe.recv()
                    except (EOFError, OSError):
                        bury(worker)
                        continue
                    kind, shard_id = message[0], message[1]
                    worker_id = worker.worker_id
                    if kind == "heartbeat":
                        self._heartbeats[shard_id] = (message[2], message[3])
                        self._worker_heartbeats[worker_id] = (message[2], message[3])
                        if obs.enabled:
                            obs.counter("pool.heartbeats").inc()
                        continue
                    worker.assigned = None
                    if shard_id in done:
                        continue  # duplicate from a retried shard
                    if kind == "error":
                        record_failure(worker, shard_id, message[2])
                        retry_or_raise(shard_id)
                        continue
                    done.add(shard_id)
                    if obs.enabled:
                        label, _ = self._heartbeats.get(shard_id, ("", 0.0))
                        obs.complete_span(
                            "shard.execute",
                            assigned_at[shard_id],
                            time.perf_counter(),
                            tid=worker_id,
                            shard=shard_id,
                            label=label,
                        )
                        obs.counter("pool.shards_done").inc()
                    yield shard_id, message[2]
        finally:
            for worker in fleet:
                worker.stop()
            deadline = time.time() + 2.0
            for worker in fleet:
                worker.process.join(timeout=max(0.0, deadline - time.time()))
            for worker in fleet:
                worker.kill()
