"""Tests for the execution substrate (:mod:`repro.dist`).

Covers the shard plan, the crash-tolerant worker pool and its ordered
lazy map, the checkpoint journal, and the acceptance properties of the
sharded executor: serial vs. sharded bit-identity at store-document level
(both engines, both store backends), exactness of the persisted
per-repetition aggregates against the pooled raw samples, and
interrupt/resume byte-identity re-simulating only unfinished shards.
"""

import io
import json
import os
import time

import numpy as np
import pytest

from repro.channels.runner import run_universe, universe_fingerprint
from repro.channels.universe import UniverseSpec, run_universe_rep
from repro.dist import (
    ProgressReporter,
    Shard,
    ShardExecutionError,
    ShardJournal,
    ShardPlan,
    ShardUnit,
    WorkerPool,
)
from repro.dist.progress import format_eta
from repro.experiments.store import STORE_BACKENDS, open_store
from repro.obs import telemetry_session
from repro.records import from_json, to_json

#: The same deliberately tiny universe the channel tests use.
TINY = UniverseSpec(
    name="tiny-dist",
    description="dist-test universe",
    n_channels=4,
    n_viewers=48,
    zipf_exponent=1.0,
    min_audience=8,
    surfer_fraction=0.4,
    surfer_zap_rate=0.15,
    loyal_zap_rate=0.01,
    duration=16.0,
)


# --------------------------------------------------------------------------- #
# shard plan
# --------------------------------------------------------------------------- #
class TestShardPlan:
    def test_build_is_deterministic(self):
        first = ShardPlan.build(TINY, [0, 1, 2], 3)
        second = ShardPlan.build(TINY, [0, 1, 2], 3)
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    def test_covers_every_unit_exactly_once(self):
        plan = ShardPlan.build(TINY, [0, 1, 2], 5)
        units = [unit for shard in plan.shards for unit in shard.units]
        assert len(units) == plan.n_units == 3 * TINY.n_channels
        assert len(set(units)) == len(units)

    def test_round_robin_balance(self):
        plan = ShardPlan.build(TINY, [0, 1, 2], 5)
        sizes = [len(shard) for shard in plan.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_clamped_to_unit_count(self):
        plan = ShardPlan.build(TINY, [7], 100)
        assert plan.n_shards == TINY.n_channels
        assert all(len(shard) == 1 for shard in plan.shards)

    def test_shard_of_matches_the_partition(self):
        plan = ShardPlan.build(TINY, [0, 1, 2], 5)
        for shard in plan.shards:
            for unit in shard.units:
                assert plan.shard_of(unit) == shard.shard_id
        with pytest.raises(KeyError):
            plan.shard_of(ShardUnit(rep_seed=99, channel=0))
        with pytest.raises(KeyError):
            plan.shard_of(ShardUnit(rep_seed=0, channel=TINY.n_channels))

    def test_fingerprint_rotates_with_inputs(self):
        base = ShardPlan.build(TINY, [0, 1], 2).fingerprint()
        assert ShardPlan.build(TINY, [0, 1], 3).fingerprint() != base
        assert ShardPlan.build(TINY, [0, 2], 2).fingerprint() != base
        bigger = TINY.scaled_to(n_viewers=60)
        assert ShardPlan.build(bigger, [0, 1], 2).fingerprint() != base

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build(TINY, [0], 0)
        with pytest.raises(ValueError):
            ShardPlan.build(TINY, [], 2)

    def test_unit_round_trips_through_dict(self):
        unit = ShardUnit(rep_seed=3, channel=1)
        assert from_json(ShardUnit, to_json(unit)) == unit

    def test_shard_rep_seeds_in_unit_order(self):
        shard = Shard(
            shard_id=0,
            units=(
                ShardUnit(rep_seed=5, channel=0),
                ShardUnit(rep_seed=2, channel=1),
                ShardUnit(rep_seed=5, channel=2),
            ),
        )
        assert shard.rep_seeds == (5, 2)


# --------------------------------------------------------------------------- #
# worker pool (synthetic, picklable task functions)
# --------------------------------------------------------------------------- #
def _double_task(payload, heartbeat):
    heartbeat(f"rep{payload}/ch0")
    return payload * 2


def _failing_task(payload, heartbeat):
    heartbeat(f"rep{payload}/ch{payload + 1}")
    raise RuntimeError(f"unit {payload} exploded")


def _crash_once_hook(worker_id, shard_id):
    """Hard-kill the worker on each shard's first attempt only."""
    flag = os.path.join(os.environ["DIST_TEST_FLAGS"], f"shard-{shard_id}")
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os._exit(13)


def _always_raise_hook(worker_id, shard_id):
    raise RuntimeError("injected fault")


def _crash_shard_one_once_hook(worker_id, shard_id):
    if shard_id == 1:
        _crash_once_hook(worker_id, shard_id)


def _chatty_or_quick_task(payload, heartbeat):
    """Shard 0 heartbeats every ~20 ms for >1 s; the others return at once."""
    if payload == 0:
        for beat in range(60):
            heartbeat(f"beat{beat}")
            time.sleep(0.02)
    return payload


def _sleep_then_stamp(delay):
    time.sleep(delay)
    return delay, time.time()


def _sleep_then_touch(item):
    delay, path = item
    time.sleep(delay)
    with open(path, "w", encoding="utf-8"):
        pass
    return delay


def _pid_of(_item):
    return os.getpid()


class TestWorkerPool:
    def test_runs_every_task_once(self):
        pool = WorkerPool(2)
        results = dict(pool.run(_double_task, {0: 10, 1: 11, 2: 12}))
        assert results == {0: 20, 1: 22, 2: 24}
        assert pool.failures == []

    def test_heartbeats_record_the_unit_label(self):
        pool = WorkerPool(1)
        list(pool.run(_double_task, {0: 7}))
        label, stamp = pool.last_heartbeat(0)
        assert label == "rep7/ch0"
        assert stamp > 0

    def test_mid_shard_error_names_the_offending_unit(self):
        pool = WorkerPool(1, max_retries=0)
        with pytest.raises(ShardExecutionError) as excinfo:
            list(pool.run(_failing_task, {4: 4}))
        message = str(excinfo.value)
        assert "shard 4 failed after 1 attempt(s)" in message
        assert "rep4/ch5" in message  # the last heartbeat: the unit that died
        assert "unit 4 exploded" in message
        (failure,) = excinfo.value.failures
        assert failure.shard_id == 4
        assert failure.last_heartbeat == "rep4/ch5"

    def test_worker_crash_is_retried_on_a_respawned_worker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIST_TEST_FLAGS", str(tmp_path))
        pool = WorkerPool(2, max_retries=1, fault_hook=_crash_once_hook)
        results = dict(pool.run(_double_task, {0: 1, 1: 2, 2: 3}))
        assert results == {0: 2, 1: 4, 2: 6}
        # every shard crashed exactly once before succeeding
        assert sorted(f.shard_id for f in pool.failures) == [0, 1, 2]
        assert all(f.error == "worker process died" for f in pool.failures)

    def test_exhausted_retries_raise_with_full_summary(self):
        pool = WorkerPool(1, max_retries=1, fault_hook=_always_raise_hook)
        with pytest.raises(ShardExecutionError) as excinfo:
            list(pool.run(_double_task, {0: 1}))
        assert excinfo.value.shard_id == 0
        assert len(excinfo.value.failures) == 2  # first try + one retry
        assert "injected fault" in str(excinfo.value)

    def test_worker_heartbeat_timestamp_tracked_per_worker(self):
        pool = WorkerPool(1)
        list(pool.run(_double_task, {0: 7}))
        beat = pool.last_worker_heartbeat(0)
        assert beat is not None
        label, stamp = beat
        assert label == "rep7/ch0"
        assert stamp > 0

    def test_failure_summary_reports_heartbeat_age(self):
        pool = WorkerPool(1, max_retries=0)
        with pytest.raises(ShardExecutionError) as excinfo:
            list(pool.run(_failing_task, {4: 4}))
        (failure,) = excinfo.value.failures
        assert failure.heartbeat_age_s is not None
        assert 0.0 <= failure.heartbeat_age_s < 60.0
        assert "last heartbeat" in failure.describe()
        assert "s ago" in failure.describe()

    def test_pool_reconstructs_shard_spans_and_events(self):
        from repro.obs import telemetry_session

        with telemetry_session() as telemetry:
            pool = WorkerPool(2)
            dict(pool.run(_double_task, {0: 1, 1: 2, 2: 3}))
        spans = telemetry.tracer.spans_named("shard.execute")
        assert sorted(e["args"]["shard"] for e in spans) == [0, 1, 2]
        assert all(e["dur"] >= 0.0 for e in spans)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["pool.shards_done"] == 3
        assert counters["pool.worker_spawn"] == 2
        assert counters["pool.heartbeats"] >= 3

    def test_pool_traces_retry_and_respawn_events(self, tmp_path, monkeypatch):
        from repro.obs import telemetry_session

        monkeypatch.setenv("DIST_TEST_FLAGS", str(tmp_path))
        with telemetry_session() as telemetry:
            pool = WorkerPool(1, max_retries=1, fault_hook=_crash_once_hook)
            results = dict(pool.run(_double_task, {0: 5}))
        assert results == {0: 10}
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["pool.shard_failure"] == 1
        assert counters["pool.shard_retry"] == 1
        assert counters["pool.worker_respawn"] >= 1
        names = {e["name"] for e in telemetry.tracer.events()}
        assert {"pool.shard_failure", "pool.shard_retry",
                "pool.worker_respawn"} <= names

    def test_retry_and_respawn_warnings_are_logged(self, tmp_path, monkeypatch,
                                                   caplog):
        import logging

        monkeypatch.setenv("DIST_TEST_FLAGS", str(tmp_path))
        pool = WorkerPool(1, max_retries=1, fault_hook=_crash_once_hook)
        with caplog.at_level(logging.WARNING, logger="repro.dist.pool"):
            assert dict(pool.run(_double_task, {0: 5})) == {0: 10}
        messages = " ".join(record.message for record in caplog.records)
        assert "died" in messages and "retrying shard 0" in messages
        assert "respawned" in messages

    def test_dead_worker_is_noticed_while_another_keeps_heartbeating(
        self, tmp_path, monkeypatch
    ):
        # A worker's death is an event on its own result pipe (EOF): another
        # worker heartbeating non-stop must not postpone the crashed
        # shard's retry until the traffic falls silent.
        monkeypatch.setenv("DIST_TEST_FLAGS", str(tmp_path))
        pool = WorkerPool(2, max_retries=1, fault_hook=_crash_shard_one_once_hook)
        completed = [
            shard_id for shard_id, _ in pool.run(_chatty_or_quick_task, {0: 0, 1: 1})
        ]
        assert [f.shard_id for f in pool.failures] == [1]
        assert completed == [1, 0]  # the retried shard beat the chatty one

    def test_empty_task_map_is_a_no_op(self):
        assert list(WorkerPool(2).run(_double_task, {})) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, max_retries=-1)


class TestWorkerPoolMap:
    def test_task_order_survives_reversed_completion_order(self):
        delays = [0.6, 0.3, 0.0]
        results = list(WorkerPool(3).map(_sleep_then_stamp, delays))
        assert [delay for delay, _ in results] == delays
        finished = [stamp for _, stamp in results]
        assert finished == sorted(finished, reverse=True)  # really reversed

    def test_first_result_is_yielded_before_the_last_task_finishes(self, tmp_path):
        first_flag, last_flag = tmp_path / "first", tmp_path / "last"
        results = WorkerPool(2).map(
            _sleep_then_touch, [(0.0, str(first_flag)), (1.0, str(last_flag))]
        )
        assert next(results) == 0.0
        assert first_flag.exists() and not last_flag.exists()
        assert list(results) == [1.0]
        assert last_flag.exists()

    def test_one_worker_or_one_item_stays_in_process(self):
        here = os.getpid()
        assert list(WorkerPool(1).map(_pid_of, [0, 1])) == [here, here]
        assert list(WorkerPool(4).map(_pid_of, [0])) == [here]
        assert here not in list(WorkerPool(2).map(_pid_of, [0, 1]))

    def test_worker_crash_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIST_TEST_FLAGS", str(tmp_path))
        pool = WorkerPool(2, fault_hook=_crash_once_hook)
        delays = [0.0, 0.01, 0.02]
        assert [d for d, _ in pool.map(_sleep_then_stamp, delays)] == delays
        assert sorted(f.shard_id for f in pool.failures) == [0, 1, 2]

    def test_empty_input_is_a_no_op(self):
        assert list(WorkerPool(2).map(_pid_of, [])) == []


# --------------------------------------------------------------------------- #
# checkpoint journal
# --------------------------------------------------------------------------- #
class TestShardJournal:
    MANIFEST = {"spec": {"name": "x"}, "n_shards": 2}

    def test_record_round_trips_exactly(self, tmp_path):
        journal = ShardJournal.open(tmp_path, "run-a", self.MANIFEST)
        payload = {"units": [{"value": 0.1 + 0.2}]}
        journal.record(0, payload)
        completed = journal.completed()
        assert set(completed) == {0}
        assert completed[0]["units"] == payload["units"]  # exact floats
        assert completed[0]["shard_id"] == 0

    def test_reopen_with_same_manifest_keeps_records(self, tmp_path):
        ShardJournal.open(tmp_path, "run-a", self.MANIFEST).record(1, {"units": []})
        journal = ShardJournal.open(tmp_path, "run-a", self.MANIFEST)
        assert set(journal.completed()) == {1}

    def test_manifest_mismatch_wipes_the_directory(self, tmp_path):
        ShardJournal.open(tmp_path, "run-a", self.MANIFEST).record(1, {"units": []})
        journal = ShardJournal.open(tmp_path, "run-a", {"spec": {"name": "y"}})
        assert journal.completed() == {}

    def test_unparsable_records_are_skipped(self, tmp_path):
        journal = ShardJournal.open(tmp_path, "run-a", self.MANIFEST)
        journal.record(0, {"units": []})
        (journal.directory / "shard-00001.json").write_text("{torn", encoding="utf-8")
        assert set(journal.completed()) == {0}

    def test_discard_removes_journal_and_empty_root(self, tmp_path):
        root = tmp_path / "journal"
        journal = ShardJournal.open(root, "run-a", self.MANIFEST)
        journal.record(0, {"units": []})
        assert ShardJournal.exists(root, "run-a")
        journal.discard()
        assert not ShardJournal.exists(root, "run-a")
        assert not root.exists()


# --------------------------------------------------------------------------- #
# end-to-end: bit-identity, sketches, interrupt/resume
# --------------------------------------------------------------------------- #
def _universe_documents(store):
    """Every universe-* document, keyed, with volatile fields dropped."""
    docs = {}
    for key in store.keys():
        if not key.startswith("universe-"):
            continue
        document = store.load(key)
        document.pop("created", None)
        docs[key] = json.dumps(document, sort_keys=True)
    assert docs, "no universe documents persisted"
    return docs


@pytest.mark.parametrize("engine", ["oracle", "vector"])
@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_sharded_run_is_bit_identical_to_serial(tmp_path, engine, backend):
    serial_store = open_store(tmp_path / "serial", backend=backend)
    sharded_store = open_store(tmp_path / "sharded", backend=backend)
    run_universe(
        TINY, seed=0, repetitions=2, store=serial_store, compute_engine=engine
    )
    run_universe(
        TINY, seed=0, repetitions=2, store=sharded_store,
        compute_engine=engine, shards=3, workers=2,
    )
    assert _universe_documents(sharded_store) == _universe_documents(serial_store)
    # the journal never outlives a successful run
    assert not (sharded_store.root / "journal").exists()


def test_streaming_aggregates_match_exact_statistics(tmp_path):
    """``merge_rep_aggregates`` over the documents a sharded run persisted
    yields the exact pooled statistics -- the one aggregation mechanism."""
    from repro.channels.aggregates import merge_rep_aggregates
    from repro.channels.universe import plan_universe, run_channel_meshes
    from repro.metrics.collectors import completion_times

    store = open_store(tmp_path, backend="json")
    result = run_universe(TINY, seed=0, repetitions=2, store=store, shards=3, workers=2)
    documents = [
        store.load(universe_fingerprint(TINY, rep.seed), "universe") for rep in result.reps
    ]
    aggregates = merge_rep_aggregates([doc["aggregates"] for doc in documents])
    assert set(aggregates) == {"normal", "fast"}

    # Pool the exact per-peer samples the unit aggregates are built from
    # (re-derived from the same mesh runs the workers' units reduce).
    pooled = {"normal": [], "fast": []}
    for rep in result.reps:
        plan = plan_universe(TINY, rep.seed)
        for channel in range(TINY.n_channels):
            for algorithm, mesh in run_channel_meshes(plan, channel):
                samples = completion_times(
                    mesh.metrics.outcomes, "switch_complete_time", mesh.metrics.horizon
                )
                pooled[algorithm].extend(samples)
    for name in ("normal", "fast"):
        samples = pooled[name]
        agg = aggregates[name]
        assert agg.stats.count == len(samples)
        assert agg.stats.mean == pytest.approx(float(np.mean(samples)), rel=0, abs=1e-12)
        assert agg.sketch.count == len(samples)
        # tiny universe => below sketch capacity => exact percentiles
        assert agg.sketch.exact
        for q in (50.0, 90.0, 99.0):
            assert agg.sketch.percentile(q) == float(np.percentile(samples, q))


def _journal_replayed(telemetry):
    """How many shards the run under ``telemetry`` replayed from its journal."""
    return telemetry.registry.snapshot()["counters"]["dist.shards.replayed"]


class _StopAfter:
    """after_shard hook that interrupts the run after ``n`` shards."""

    def __init__(self, n):
        self.n = n
        self.seen = 0

    def __call__(self, shard_id):
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def test_interrupted_run_resumes_byte_identically(tmp_path):
    reference_store = open_store(tmp_path / "ref", backend="json")
    run_universe(TINY, seed=0, repetitions=3, store=reference_store, shards=4)
    reference = _universe_documents(reference_store)

    store = open_store(tmp_path / "resumed", backend="json")
    with pytest.raises(KeyboardInterrupt):
        run_universe(TINY, seed=0, repetitions=3, store=store, shards=4, workers=2,
                     after_shard=_StopAfter(2))

    # the journal survived the interrupt
    plan = ShardPlan.build(TINY, [0, 1, 2], 4)
    journal_root = store.root / "journal"
    assert ShardJournal.exists(journal_root, plan.fingerprint())

    run_universe(TINY, seed=0, repetitions=3, store=store, shards=4, workers=2)
    assert _universe_documents(store) == reference
    assert not journal_root.exists()


def test_resume_replays_finished_shards_from_journal(tmp_path):
    store = open_store(tmp_path, backend="json")
    with pytest.raises(KeyboardInterrupt):
        run_universe(TINY, seed=0, repetitions=3, store=store, shards=4,
                     after_shard=_StopAfter(2))

    with telemetry_session() as telemetry:
        result = run_universe(TINY, seed=0, repetitions=3, store=store, shards=4)
    assert result.repetitions == 3
    # the two finished shards came back from the journal, not the simulator
    assert _journal_replayed(telemetry) == 2
    # and the resumed store matches a from-scratch serial repetition
    serial = to_json(run_universe_rep(TINY, 0))
    del serial["aggregates"]  # stored next to the rep, not inside it
    stored = store.load(universe_fingerprint(TINY, 0), "universe")["rep"]
    assert json.dumps(stored, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_interrupted_pooled_run_without_shards_resumes_byte_identically(tmp_path):
    """``workers > 1`` alone also runs on the journaled sharded runtime
    (one ``(repetition, channel)`` unit per shard)."""
    reference_store = open_store(tmp_path / "ref", backend="json")
    run_universe(TINY, seed=0, repetitions=2, store=reference_store)

    store = open_store(tmp_path / "resumed", backend="json")
    with pytest.raises(KeyboardInterrupt):
        run_universe(TINY, seed=0, repetitions=2, store=store, workers=2,
                     after_shard=_StopAfter(3))
    plan = ShardPlan.build(TINY, [0, 1], 2 * TINY.n_channels)
    assert ShardJournal.exists(store.root / "journal", plan.fingerprint())

    with telemetry_session() as telemetry:
        run_universe(TINY, seed=0, repetitions=2, store=store, workers=2)
    assert _journal_replayed(telemetry) == 3
    assert _universe_documents(store) == _universe_documents(reference_store)
    assert not (store.root / "journal").exists()


def test_journal_left_by_the_parent_commit_is_discarded_not_parsed(tmp_path):
    """Before the shard-level aggregate twin was removed, manifests carried
    ``sketch_capacity`` and records carried ``sketches``/``stats``.  Such a
    journal fails the manifest check and is wiped: its shards re-simulate
    and its records are never read (the poisoned ``units`` would raise)."""
    reference_store = open_store(tmp_path / "ref", backend="json")
    run_universe(TINY, seed=0, repetitions=2, store=reference_store)

    store = open_store(tmp_path / "stale", backend="json")
    plan = ShardPlan.build(TINY, [0, 1], 2)
    old_manifest = {
        "spec": TINY.to_dict(),
        "rep_seeds": [0, 1],
        "n_shards": 2,
        "sketch_capacity": 8192,
    }
    stale = ShardJournal.open(store.root / "journal", plan.fingerprint(), old_manifest)
    for shard_id in range(plan.n_shards):
        stale.record(shard_id, {"units": "poison", "sketches": {}, "stats": {}})

    with telemetry_session() as telemetry:
        run_universe(TINY, seed=0, repetitions=2, store=store, shards=2)
    assert _journal_replayed(telemetry) == 0
    assert _universe_documents(store) == _universe_documents(reference_store)
    assert not (store.root / "journal").exists()


def test_crashed_worker_produces_identical_documents(tmp_path, monkeypatch):
    flags = tmp_path / "flags"
    flags.mkdir()
    monkeypatch.setenv("DIST_TEST_FLAGS", str(flags))

    reference_store = open_store(tmp_path / "ref", backend="json")
    run_universe(TINY, seed=0, repetitions=2, store=reference_store, shards=2)

    store = open_store(tmp_path / "crashy", backend="json")
    run_universe(TINY, seed=0, repetitions=2, store=store, workers=2, shards=2,
                 max_retries=1, fault_hook=_crash_once_hook)
    assert _universe_documents(store) == _universe_documents(reference_store)


def test_exhausted_shard_failure_reaches_the_caller(tmp_path):
    store = open_store(tmp_path, backend="json")
    with pytest.raises(ShardExecutionError) as excinfo:
        run_universe(TINY, seed=0, repetitions=1, store=store, shards=2,
                     max_retries=0, fault_hook=_always_raise_hook)
    assert "injected fault" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# telemetry: shard spans cover the plan exactly once
# --------------------------------------------------------------------------- #
class TestShardSpanCoverage:
    """A ``--shards N --telemetry`` run's document carries one
    ``shard.execute`` span per planned shard -- no more, no less -- even
    when a worker crash forces a retry (the crashed attempt never
    completes a span; only the successful one does)."""

    def test_spans_cover_every_planned_shard_exactly_once(self, tmp_path):
        from repro.obs import build_telemetry_document, telemetry_session

        store = open_store(tmp_path, backend="json")
        with telemetry_session() as telemetry:
            run_universe(
                TINY, seed=0, repetitions=2, store=store, shards=2, workers=2
            )
        document = build_telemetry_document(telemetry, run={"kind": "universe"})
        plan = ShardPlan.build(TINY, [0, 1], 2)
        assert sorted(row["shard"] for row in document["shards"]) == \
            list(range(plan.n_shards))

    def test_spans_exactly_once_after_an_injected_worker_crash(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import build_telemetry_document

        flags = tmp_path / "flags"
        flags.mkdir()
        monkeypatch.setenv("DIST_TEST_FLAGS", str(flags))
        store = open_store(tmp_path / "store", backend="json")
        with telemetry_session() as telemetry:
            run_universe(TINY, seed=0, repetitions=2, store=store, workers=2, shards=2,
                         max_retries=1, fault_hook=_crash_once_hook)
        document = build_telemetry_document(telemetry, run={"kind": "universe"})
        plan = ShardPlan.build(TINY, [0, 1], 2)
        assert sorted(row["shard"] for row in document["shards"]) == \
            list(range(plan.n_shards))
        # ...and the retries really happened (one crash per shard).
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["pool.shard_retry"] == plan.n_shards


# --------------------------------------------------------------------------- #
# live progress
# --------------------------------------------------------------------------- #
class _FakePool:
    """Duck-typed stand-in: only ``worker_heartbeats`` is consulted."""

    def __init__(self, beats):
        self.beats = beats

    def worker_heartbeats(self):
        return dict(self.beats)


class TestProgressReporter:
    def test_lines_are_newline_terminated_and_counted(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=0)
        reporter.begin(total=3, replayed=1, pool=None)
        reporter.shard_done(0)
        reporter.shard_done(1)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert reporter.lines_emitted == 4 == len(lines)
        assert stream.getvalue().endswith("\n")
        assert lines[0] == "[shards] 1/3 done (1 replayed) | ETA --"
        assert lines[-1] == "[shards] 3/3 done (1 replayed) | all shards finished"

    def test_eta_tracks_the_observed_completion_rate(self):
        fake = {"t": 0.0}
        reporter = ProgressReporter(
            stream=io.StringIO(), interval_s=0, clock=lambda: fake["t"]
        )
        reporter.begin(total=4, replayed=0, pool=None)
        fake["t"] = 10.0
        reporter.shard_done(0)
        # one fresh shard in 10s => 3 remaining at ~10s each
        assert "ETA ~30s" in reporter.status_line()

    def test_worker_heartbeat_ages_and_display_cap(self):
        beats = {i: (f"rep0/ch{i}", 90.0) for i in range(10)}
        reporter = ProgressReporter(
            stream=io.StringIO(), interval_s=0, wall_clock=lambda: 100.0
        )
        reporter.begin(total=1, replayed=0, pool=_FakePool(beats))
        line = reporter.status_line()
        assert "w0 rep0/ch0 (10.0s)" in line
        assert "+2 more" in line  # 10 workers, at most 8 shown
        assert "w8 " not in line

    def test_throttle_suppresses_mid_interval_lines(self):
        fake = {"t": 0.0}
        reporter = ProgressReporter(
            stream=io.StringIO(), interval_s=100.0, clock=lambda: fake["t"]
        )
        try:
            reporter.begin(total=3, replayed=0, pool=None)
            fake["t"] = 1.0
            reporter.shard_done(0)  # inside the interval: no line
            assert reporter.lines_emitted == 1
            fake["t"] = 200.0
            reporter.shard_done(1)  # interval elapsed: a line
            assert reporter.lines_emitted == 2
        finally:
            reporter.finish()

    def test_finish_is_idempotent(self):
        reporter = ProgressReporter(stream=io.StringIO(), interval_s=0)
        reporter.begin(total=1, replayed=0, pool=None)
        reporter.shard_done(0)
        reporter.finish()
        emitted = reporter.lines_emitted
        reporter.finish()
        assert reporter.lines_emitted == emitted

    def test_format_eta_ranges(self):
        assert format_eta(42) == "~42s"
        assert format_eta(190) == "~3m10s"
        assert format_eta(2 * 3600 + 5 * 60) == "~2h05m"

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval_s=-1)

    def test_sharded_run_reports_live_progress(self, tmp_path):
        """End to end: a sharded universe run drives the reporter through
        begin / per-shard / finish and the lines narrate the frontier."""
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=0)
        store = open_store(tmp_path, backend="json")
        run_universe(
            TINY, seed=0, repetitions=1, workers=2, store=store,
            shards=2, progress=reporter,
        )
        lines = stream.getvalue().splitlines()
        assert reporter.lines_emitted == len(lines) == 4
        assert lines[0].startswith("[shards] 0/2 done")
        assert lines[1].startswith("[shards] 1/2 done")
        assert lines[-1].startswith("[shards] 2/2 done | all shards finished")

    def test_pooled_run_without_shards_reports_one_shard_per_unit(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=0)
        run_universe(TINY, seed=0, workers=2, progress=reporter)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith(f"[shards] 0/{TINY.n_channels} done")
        assert lines[-1].startswith(
            f"[shards] {TINY.n_channels}/{TINY.n_channels} done | all shards finished"
        )
