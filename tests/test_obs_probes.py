"""Tests for the sim-time protocol probes (:mod:`repro.obs.probes`).

Covers the probe layer's tentpole properties:

* the three probes record what instrumented code reports, with bounded
  (keep-first-N) buffers and dropped counters;
* probes are off by default -- even under a plain ``--telemetry``
  session, where every probe call is guarded and nothing is recorded;
* probes are provably inert: results and store documents are
  byte-identical with probes on and off (telemetry document excluded);
* both engines emit **identical** probe event streams for the same
  configuration -- the differential guarantee that makes a probe
  timeline trustworthy regardless of engine choice.
"""

import json
from dataclasses import replace

import pytest

from conftest import normalized_run_document, store_documents
from repro.churn.model import ChurnConfig
from repro.experiments.store import ResultStore, persist_telemetry_document
from repro.obs import (
    build_telemetry_document,
    get_telemetry,
    telemetry_session,
)
from repro.obs.probes import (
    DROP_NO_BUDGET,
    DROP_REASONS,
    FUNNEL_MILESTONES,
    NULL_PROBES,
    ProbeSet,
    SegmentLifecycleProbe,
    StartupFunnelProbe,
    SwarmHealthProbe,
    STAGE_DROPPED,
    STAGE_NAMES,
    STAGE_REQUESTED,
)
from repro.streaming.session import SwitchSession


# --------------------------------------------------------------------------- #
# segment lifecycle ring buffer
# --------------------------------------------------------------------------- #
def test_lifecycle_keeps_first_n_and_counts_drops():
    probe = SegmentLifecycleProbe(capacity=3)
    for i in range(5):
        probe.append(float(i), i, peer=1, seg=i, stage=STAGE_REQUESTED)
    assert len(probe) == 3
    assert probe.dropped == 2
    assert probe.times == [0.0, 1.0, 2.0]  # first N, never a sliding window


def test_lifecycle_rows_filter_and_counts():
    probe = SegmentLifecycleProbe()
    probe.append(1.0, 0, peer=1, seg=10, stage=STAGE_REQUESTED)
    probe.append(1.0, 0, peer=2, seg=10, stage=STAGE_REQUESTED)
    probe.append(2.0, 1, peer=1, seg=10, stage=STAGE_DROPPED,
                 supplier=5, value=DROP_NO_BUDGET)
    assert [r["peer"] for r in probe.rows(peer=1)] == [1, 1]
    assert [r["seg"] for r in probe.rows(seg=10)] == [10, 10, 10]
    assert probe.rows(peer=1)[1]["stage"] == "dropped"
    assert probe.stage_counts() == {"requested": 2, "dropped": 1}
    assert probe.drop_reason_counts() == {"no_budget": 1}
    snapshot = probe.snapshot()
    assert snapshot["events"] == 3 and snapshot["dropped"] == 0
    json.dumps(snapshot)


def test_stage_names_aligned_with_codes():
    assert len(STAGE_NAMES) == 7
    assert STAGE_NAMES[STAGE_REQUESTED] == "requested"
    assert STAGE_NAMES[STAGE_DROPPED] == "dropped"
    assert len(DROP_REASONS) == 3


# --------------------------------------------------------------------------- #
# swarm health series
# --------------------------------------------------------------------------- #
def test_health_sample_percentiles_and_snapshot():
    probe = SwarmHealthProbe()
    probe.sample(1.0, "ch0", [0, 5, 10], pending=4, utilisation=0.5,
                 requests=6, failed=1, delivered=5)
    probe.sample(2.0, "ch1", [10, 10, 10], pending=0, utilisation=0.9,
                 requests=3, failed=0, delivered=3)
    rows = probe.rows()
    assert len(rows) == 2
    assert rows[0]["peers"] == 3 and rows[0]["fill_p50"] == 5.0
    assert probe.rows(label="ch1")[0]["utilisation"] == 0.9
    snapshot = probe.snapshot()
    assert snapshot["periods"] == 2
    assert snapshot["buffer_fill"]["count"] == 6  # cumulative across periods
    assert snapshot["buffer_fill"]["p90"] == 10.0
    json.dumps(snapshot)


def test_health_capacity_bound():
    probe = SwarmHealthProbe(capacity=1)
    for t in range(3):
        probe.sample(float(t), "x", [1], pending=0, utilisation=0.0,
                     requests=0, failed=0, delivered=0)
    assert len(probe) == 1 and probe.dropped == 2


# --------------------------------------------------------------------------- #
# startup funnel
# --------------------------------------------------------------------------- #
def test_funnel_marks_are_set_once():
    probe = StartupFunnelProbe()
    probe.mark("ch0", 1, "joined", 0.0)
    probe.mark("ch0", 1, "playback", 12.0)
    probe.mark("ch0", 1, "playback", 99.0)  # later report must not overwrite
    assert probe.seen("ch0", 1, "playback")
    assert not probe.seen("ch0", 1, "first_map")
    (row,) = probe.peer_rows(label="ch0")
    assert row["playback"] == 12.0 and row["first_map"] is None


def test_funnel_rows_aggregate_per_label():
    probe = StartupFunnelProbe()
    for peer, playback in ((1, 10.0), (2, 14.0)):
        probe.mark("ch0", peer, "joined", 2.0)
        probe.mark("ch0", peer, "playback", playback)
    probe.mark("ch1", 3, "joined", 0.0)
    rows = probe.funnel_rows()
    assert [row["label"] for row in rows] == ["ch0", "ch1"]
    ch0 = rows[0]
    assert ch0["joined"] == 2 and ch0["playback"] == 2
    assert ch0["playback_mean_s"] == 10.0  # mean of (10-2, 14-2)
    assert rows[1]["playback"] == 0 and rows[1]["playback_mean_s"] is None
    assert tuple(FUNNEL_MILESTONES)[0] == "joined"
    json.dumps(probe.snapshot())


# --------------------------------------------------------------------------- #
# the null probe set and the telemetry switch
# --------------------------------------------------------------------------- #
def test_null_probes_are_inert(tiny_config):
    """Telemetry on, probes off: a churning session over a latency fabric
    runs clean on both engines and records no probe state.  The disabled set
    has no probes, so an unguarded probe call (joiners pass ``_add_peer``)
    would raise ``AttributeError`` here."""
    config = replace(tiny_config, topology="metro", churn=ChurnConfig.paper_dynamic())
    for engine in ("oracle", "vector"):
        with telemetry_session() as telemetry:
            session = SwitchSession(replace(config, engine=engine))
            initial = set(session.peers)
            session.run()
        assert set(session.peers) - initial, "no joiner passed _add_peer"
        assert telemetry.probes is NULL_PROBES
        assert build_telemetry_document(telemetry, run={})["probes"] == {"enabled": False}
    assert vars(NULL_PROBES) == {}


def test_probes_are_off_by_default_even_with_telemetry_on():
    assert get_telemetry().probes is NULL_PROBES
    with telemetry_session() as telemetry:
        assert telemetry.probes is NULL_PROBES
    with telemetry_session(probes=True) as telemetry:
        assert isinstance(telemetry.probes, ProbeSet)
        assert telemetry.probes.enabled
        assert get_telemetry().probes is telemetry.probes
    assert get_telemetry().probes is NULL_PROBES


def test_telemetry_document_carries_the_probes_block(tiny_config):
    with telemetry_session(probes=True) as telemetry:
        SwitchSession(tiny_config).run()
    document = build_telemetry_document(telemetry, run={"kind": "run"})
    probes = document["probes"]
    assert probes["enabled"] is True
    assert probes["lifecycle"]["events"] > 0
    assert probes["health"]["periods"] > 0
    # Every tracked peer joins the funnel (sources are not tracked peers).
    assert 0 < probes["funnel"]["peers"] <= tiny_config.n_nodes
    json.dumps(document)
    # A probe-less telemetry session exports the disabled marker only.
    with telemetry_session() as plain:
        pass
    assert build_telemetry_document(plain)["probes"] == {"enabled": False}


# --------------------------------------------------------------------------- #
# engine parity: the differential guarantee
# --------------------------------------------------------------------------- #
def _probed_run(config):
    with telemetry_session(probes=True) as telemetry:
        result = SwitchSession(config).run()
    probes = telemetry.probes
    lifecycle = (probes.lifecycle.times, probes.lifecycle.periods,
                 probes.lifecycle.peers, probes.lifecycle.segs,
                 probes.lifecycle.stages, probes.lifecycle.suppliers,
                 probes.lifecycle.values)
    return (normalized_run_document(result), lifecycle,
            probes.health.rows(), probes.funnel.peer_rows(),
            probes.snapshot())


def test_scalar_and_vector_emit_identical_probe_streams(tiny_config):
    """The acceptance criterion: a paired session produces the same probe
    event stream under both engines, column for column."""
    oracle = _probed_run(replace(tiny_config, engine="oracle"))
    vector = _probed_run(replace(tiny_config, engine="vector"))
    assert oracle[0] == vector[0]  # simulation results
    assert oracle[1] == vector[1]  # lifecycle columns
    assert oracle[2] == vector[2]  # health rows
    assert oracle[3] == vector[3]  # funnel rows
    assert json.dumps(oracle[4], sort_keys=True) == \
        json.dumps(vector[4], sort_keys=True)
    assert oracle[4]["lifecycle"]["events"] > 0


def test_probes_do_not_change_session_results(tiny_config):
    baseline = normalized_run_document(SwitchSession(tiny_config).run())
    probed, *_ = _probed_run(tiny_config)
    assert probed == baseline


# --------------------------------------------------------------------------- #
# store inertness
# --------------------------------------------------------------------------- #
def test_universe_store_documents_identical_with_probes_on_and_off(tmp_path):
    """Probes off -> the store is byte-identical to current main; probes on
    -> only the telemetry document differs (and it carries the probes)."""
    from repro.channels.runner import run_universe
    from repro.workloads.library import get_universe

    spec = get_universe("lineup-mini").scaled_to(n_channels=2, n_viewers=24)

    def run_into(root):
        store = ResultStore(root)
        run_universe(spec, seed=3, repetitions=1, workers=1, store=store,
                     compute_engine=None, shards=None)
        return store

    run_into(tmp_path / "off")
    with telemetry_session(probes=True):
        store_on = run_into(tmp_path / "on")
        key = persist_telemetry_document(
            store_on, run={"kind": "universe", "name": spec.name}
        )
    documents_off = store_documents(tmp_path / "off")
    documents_on = store_documents(tmp_path / "on")
    telemetry_docs = [name for name in documents_on
                      if name.startswith("telemetry-")]
    assert len(telemetry_docs) == 2  # the document plus its .meta.json sidecar
    probes_block = store_on.load(key, "telemetry")["probes"]
    assert probes_block["enabled"] and probes_block["health"]["periods"] > 0
    for name in telemetry_docs:
        documents_on.pop(name)
    assert documents_on == documents_off
