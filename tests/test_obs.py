"""Tests for the observability layer (:mod:`repro.obs`).

Covers the three tentpole properties:

* the counters and tracer record what instrumented code reports;
* the disabled (null) handles are true no-ops and telemetry is off by
  default;
* telemetry is provably inert -- an instrumented run persists the exact
  same result documents as an uninstrumented one (the ``telemetry-*``
  document itself excluded), and telemetry content never feeds a
  fingerprint.
"""

import json
from dataclasses import replace

import pytest

from conftest import normalized_run_document, store_documents
from repro.experiments.config import make_session_config
from repro.experiments.store import (
    ResultStore,
    persist_telemetry_document,
    telemetry_fingerprint,
)
from repro.experiments.sqlite_store import SQLiteStore
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    Tracer,
    build_telemetry_document,
    chrome_trace_payload,
    get_telemetry,
    shard_span_rows,
    telemetry_session,
    write_chrome_trace,
)
from repro.streaming.session import SwitchSession


# --------------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------------- #
def test_counters_accumulate_per_name():
    telemetry = Telemetry()
    telemetry.count("a")
    telemetry.count("a", 4)
    telemetry.count("b", 0)  # a zero count still names the counter
    assert telemetry.counters == {"a": 5, "b": 0}


def test_snapshot_counters_are_sorted_and_json_safe():
    telemetry = Telemetry()
    telemetry.count("z")
    telemetry.count("a")
    snapshot = telemetry.snapshot()
    assert list(snapshot) == ["counters", "spans"]
    assert list(snapshot["counters"]) == ["a", "z"]
    json.dumps(snapshot)  # must serialise as-is


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #
def test_tracer_span_records_event_and_stats():
    tracer = Tracer()
    with tracer.span("phase.work", t=1.0):
        pass
    events = tracer.events()
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "phase.work" and event["ph"] == "X"
    assert event["cat"] == "phase"
    assert event["dur"] >= 0.0 and event["ts"] >= 0.0
    assert event["args"] == {"t": 1.0}
    stats = tracer.span_stats()["phase.work"]
    assert stats["count"] == 1
    assert stats["p50_s"] >= 0.0


def test_tracer_span_records_even_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("phase.boom"):
            raise RuntimeError("boom")
    assert tracer.span_stats()["phase.boom"]["count"] == 1


def test_tracer_bounded_buffer_drops_events_but_keeps_stats():
    tracer = Tracer(max_events=3)
    for _ in range(10):
        with tracer.span("s"):
            pass
    assert len(tracer.events()) == 3
    assert tracer.dropped == 7
    assert tracer.span_stats()["s"]["count"] == 10  # stats never drop


def test_tracer_instant_and_spans_named():
    tracer = Tracer()
    tracer.instant("pool.worker_spawn", tid=2, worker=2)
    tracer.complete("shard.execute", 0.0, 0.5, tid=2, shard=7)
    instants = [e for e in tracer.events() if e["ph"] == "i"]
    assert instants[0]["s"] == "p" and instants[0]["tid"] == 2
    named = tracer.spans_named("shard.execute")
    assert len(named) == 1 and named[0]["args"]["shard"] == 7


# --------------------------------------------------------------------------- #
# the switchboard and null handles
# --------------------------------------------------------------------------- #
def test_telemetry_is_off_by_default_and_null_is_noop():
    handle = get_telemetry()
    assert handle is NULL_TELEMETRY and not handle.enabled
    handle.count("x")
    handle.count("x", 5)
    handle.event("x")
    handle.complete_span("x", 0.0, 1.0)
    with handle.span("x"):
        pass
    assert handle.snapshot() == {"counters": {}, "spans": {}}


def test_telemetry_session_installs_and_restores():
    assert get_telemetry() is NULL_TELEMETRY
    with telemetry_session() as telemetry:
        assert get_telemetry() is telemetry
        with get_telemetry().span("unit.block", kind="test"):
            pass
        with telemetry_session() as inner:  # nested sessions restore the outer one
            assert get_telemetry() is inner
        assert get_telemetry() is telemetry
    assert get_telemetry() is NULL_TELEMETRY
    assert telemetry.tracer.span_stats()["unit.block"]["count"] == 1


# --------------------------------------------------------------------------- #
# exports
# --------------------------------------------------------------------------- #
def _sample_telemetry():
    import time

    with telemetry_session() as telemetry:
        telemetry.count("engine.events", 12)
        with telemetry.span("period.decide", t=1.0):
            pass
        base = time.perf_counter()
        telemetry.complete_span("shard.execute", base, base + 0.25, tid=3,
                                shard=1, label="rep0/ch1")
        telemetry.complete_span("shard.execute", base, base + 0.5, tid=4,
                                shard=0, label="rep0/ch0")
        telemetry.event("pool.worker_spawn", tid=3, worker=3)
    return telemetry


def test_chrome_trace_payload_is_valid_trace_event_json(tmp_path):
    telemetry = _sample_telemetry()
    payload = chrome_trace_payload(telemetry, run={"kind": "run", "name": "t"})
    assert payload["displayTimeUnit"] == "ms"
    assert {event["ph"] for event in payload["traceEvents"]} == {"X", "i"}
    for event in payload["traceEvents"]:
        assert isinstance(event["ts"], float) and event["ts"] >= 0.0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    assert payload["otherData"]["kind"] == "run"
    path = tmp_path / "trace.json"
    write_chrome_trace(telemetry, path, run={"kind": "run", "name": "t"})
    assert json.loads(path.read_text(encoding="utf-8")) == json.loads(
        json.dumps(payload)
    )


def test_shard_span_rows_sorted_by_shard():
    rows = shard_span_rows(_sample_telemetry())
    assert [row["shard"] for row in rows] == [0, 1]
    assert rows[0]["worker"] == 4 and rows[0]["label"] == "rep0/ch0"
    assert rows[1]["duration_s"] == pytest.approx(0.25)


def test_build_telemetry_document_shape():
    document = build_telemetry_document(
        _sample_telemetry(), run={"kind": "universe", "name": "lineup-mini"}
    )
    assert document["kind"] == "telemetry"
    assert document["run"]["name"] == "lineup-mini"
    assert document["counters"]["engine.events"] == 12
    assert "period.decide" in document["spans"]
    assert len(document["shards"]) == 2
    assert document["trace"]["events"] == 4 and document["trace"]["dropped"] == 0
    json.dumps(document)


# --------------------------------------------------------------------------- #
# store integration
# --------------------------------------------------------------------------- #
def test_telemetry_fingerprint_keyed_by_run_identity_not_content():
    run = {"kind": "run", "name": "a", "seed": 1}
    assert telemetry_fingerprint(run) == telemetry_fingerprint(dict(run))
    assert telemetry_fingerprint(run).startswith("telemetry-")
    assert telemetry_fingerprint(run) != telemetry_fingerprint(
        {"kind": "run", "name": "a", "seed": 2}
    )
    assert telemetry_fingerprint(run, version="x") != telemetry_fingerprint(
        run, version="y"
    )


@pytest.mark.parametrize("store_cls", [ResultStore, SQLiteStore])
def test_save_and_load_telemetry_document(tmp_path, store_cls):
    store = store_cls(tmp_path / "results")
    telemetry = _sample_telemetry()
    run = {"kind": "run", "name": "unit", "seed": 5}
    key = persist_telemetry_document(store, run=run, telemetry=telemetry)
    assert key == telemetry_fingerprint(run)
    document = store.load(key, "telemetry")
    assert document["kind"] == "telemetry"
    assert document["counters"]["engine.events"] == 12
    (entry,) = store.entries(kind="telemetry")
    assert entry.key == key
    assert "spans=" in entry.description and "run=run:unit" in entry.description


def test_persist_telemetry_document_noop_when_disabled(tmp_path):
    store = ResultStore(tmp_path / "results")
    assert persist_telemetry_document(store, run={"kind": "run", "name": "x"}) is None
    assert persist_telemetry_document(None, run={"kind": "run", "name": "x"}) is None
    assert store.entries(kind="telemetry") == []


def test_store_access_is_counted_when_enabled(tmp_path):
    store = ResultStore(tmp_path / "results")
    with telemetry_session() as telemetry:
        assert store.load("pair-missing") is None
        store.save("pair-unit", {"kind": "pair", "value": 1})
        assert store.load("pair-unit") is not None
    counters = telemetry.snapshot()["counters"]
    assert counters["store.load.miss"] == 1
    assert counters["store.load.hit"] == 1
    assert counters["store.save"] == 1
    assert "store.load" in telemetry.tracer.span_stats()


# --------------------------------------------------------------------------- #
# instrumented simulation + inertness
# --------------------------------------------------------------------------- #
def test_session_run_emits_phase_spans_and_counters(tiny_config):
    with telemetry_session() as telemetry:
        SwitchSession(replace(tiny_config, engine="oracle")).run()
    snapshot = telemetry.snapshot()
    for name in ("session.run", "engine.run", "period.decide",
                 "period.exchange", "period.flush"):
        assert snapshot["spans"][name]["count"] >= 1, name
    periods = snapshot["counters"]["session.periods"]
    assert snapshot["spans"]["period.decide"]["count"] == periods
    assert snapshot["counters"]["fabric.requests"] > 0
    assert snapshot["counters"]["engine.dispatch.scalar"] > 0


def test_vector_session_counts_vector_dispatch(tiny_config):
    with telemetry_session() as telemetry:
        SwitchSession(replace(tiny_config, engine="vector")).run()
    counters = telemetry.snapshot()["counters"]
    assert counters["engine.dispatch.vector"] > 0


@pytest.mark.parametrize("topology", ["", "transcontinental"])
def test_engines_count_the_same_traffic(topology):
    """Both engines pull buffer maps through the session's one neighbour walk,
    so everything but the dispatch counters agrees -- lost pulls included
    (and on the ideal fabric, where the array engine reuses walk results,
    the re-counted pulls)."""

    def counters(engine):
        config = make_session_config(
            40, seed=7, dynamic=True, max_time=80.0, old_stream_segments=400,
            lookahead=120, engine=engine, topology=topology,
        )
        with telemetry_session() as telemetry:
            SwitchSession(config).run()
        snapshot = telemetry.snapshot()["counters"]
        return {name: value for name, value in snapshot.items()
                if name.startswith(("fabric.", "session.", "engine.events"))}

    oracle, vector = counters("oracle"), counters("vector")
    assert oracle == vector
    assert oracle["fabric.control_pulls"] > 0
    assert (oracle["fabric.control_dropped"] > 0) == bool(topology)


def test_telemetry_does_not_change_session_results(tiny_config):
    baseline = normalized_run_document(SwitchSession(tiny_config).run())
    with telemetry_session():
        instrumented = normalized_run_document(SwitchSession(tiny_config).run())
    assert instrumented == baseline


def test_universe_store_documents_identical_with_telemetry_on_and_off(tmp_path):
    from repro.channels.runner import run_universe
    from repro.workloads.library import get_universe

    spec = get_universe("lineup-mini").scaled_to(n_channels=2, n_viewers=24)

    def run_into(root):
        store = ResultStore(root)
        run_universe(spec, seed=3, repetitions=1, workers=1, store=store,
                     compute_engine=None, shards=None)
        return store

    store_off = run_into(tmp_path / "off")
    with telemetry_session() as telemetry:
        store_on = run_into(tmp_path / "on")
        persist_telemetry_document(
            store_on, run={"kind": "universe", "name": spec.name}
        )
    documents_off = store_documents(tmp_path / "off")
    documents_on = store_documents(tmp_path / "on")
    telemetry_docs = [name for name in documents_on
                      if name.startswith("telemetry-")]
    # The document itself plus its .meta.json listing sidecar.
    assert len(telemetry_docs) == 2
    for name in telemetry_docs:
        documents_on.pop(name)
    assert documents_on == documents_off  # byte-identity (volatile-stripped)
    assert sorted(store_on.keys()) != sorted(store_off.keys())  # only telemetry differs
    assert sorted(k for k in store_on.keys() if not k.startswith("telemetry-")) == \
        sorted(store_off.keys())
