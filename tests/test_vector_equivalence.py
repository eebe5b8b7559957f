"""Differential suite: the vector engine must be bit-identical to the oracle.

Every test replays the same deterministic scenario through both engines and
asserts that the *store documents* -- the exact JSON the persistent result
store writes -- are identical field for field.  This is the contract that
makes ``engine="vector"`` a pure performance substitution: any divergence,
however small (a reordered request, a float computed in a different
association order, a numpy scalar leaking into a document), fails loudly
here.

Coverage follows the acceptance criteria: paired switch sessions (the
run/compare library path), every shipped workload script, a lineup
universe, and the metro/transcontinental latency topologies, plus churn
and full-horizon recording variants.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import normalized_run_document, run_engine_pair, store_documents

from repro.churn.model import ChurnConfig
from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair
from repro.experiments.store import ResultStore
from repro.obs.telemetry import telemetry_session
from repro.records import to_json
from repro.streaming.session import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    PeriodDirective,
    SwitchSession,
)
from repro.workloads.library import (
    IPTV_CLASSES,
    get_universe,
    get_workload,
    universe_names,
    workload_names,
)
from repro.workloads.runner import run_workload, run_workload_rep
from repro.channels.runner import run_universe
from repro.channels.universe import run_universe_rep


def _tiny(**overrides):
    base = dict(seed=7, max_time=80.0, old_stream_segments=400, lookahead=120)
    base.update(overrides)
    n_nodes = base.pop("n_nodes", 40)
    return make_session_config(n_nodes, **base)


# --------------------------------------------------------------------------- #
# single sessions and the paired-switch library
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["fast", "normal"])
def test_single_session_documents_identical(algorithm):
    oracle, vector = run_engine_pair(_tiny(algorithm=algorithm))
    assert oracle == vector


def test_paired_switch_library_documents_identical(tmp_path):
    """run_pair (the run/compare path) persists identical pair documents."""
    documents = {}
    for engine in ENGINE_NAMES:
        store = ResultStore(tmp_path / engine)
        run_pair(_tiny(engine=engine), store=store)
        documents[engine] = store_documents(tmp_path / engine)
    assert documents["oracle"] == documents["vector"]
    assert documents["oracle"]  # the store actually persisted something


def test_churn_session_documents_identical():
    oracle, vector = run_engine_pair(
        _tiny(
            seed=11,
            churn=ChurnConfig(
                enabled=True, leave_fraction=0.05, join_fraction=0.05
            ),
        )
    )
    assert oracle == vector


def test_full_horizon_round_recording_identical():
    oracle, vector = run_engine_pair(
        _tiny(seed=19, max_time=90.0, record_rounds=True, run_full_horizon=True)
    )
    assert oracle == vector


def test_simulated_warmup_documents_identical():
    oracle, vector = run_engine_pair(_tiny(seed=5, warmup="simulated"))
    assert oracle == vector


# --------------------------------------------------------------------------- #
# latency topologies
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("topology", ["metro", "transcontinental"])
@pytest.mark.parametrize("algorithm", ["fast", "normal"])
def test_topology_documents_identical(topology, algorithm):
    oracle, vector = run_engine_pair(
        _tiny(seed=13, algorithm=algorithm, topology=topology)
    )
    assert oracle == vector


# --------------------------------------------------------------------------- #
# every shipped workload script
# --------------------------------------------------------------------------- #
#: ``flash-crowd`` grows 30 % per period for ten periods (x13.8), so it is
#: replayed from a smaller seed population: the rush still takes the mesh
#: past 150 peers, at a third of the peer-periods.
_WORKLOAD_SIZES = {"flash-crowd": 12}


@pytest.mark.parametrize("name", workload_names())
def test_workload_rep_identical(name):
    spec = get_workload(name).scaled_to(_WORKLOAD_SIZES.get(name, 30))
    oracle = to_json(run_workload_rep(spec, 3, engine="oracle"))
    vector = to_json(run_workload_rep(spec, 3, engine="vector"))
    assert json.dumps(oracle, sort_keys=True) == json.dumps(
        vector, sort_keys=True
    )


def test_workload_store_documents_identical(tmp_path):
    """The store-backed runner persists identical workload documents."""
    spec = get_workload(workload_names()[0]).scaled_to(30)
    documents = {}
    for engine in ENGINE_NAMES:
        store = ResultStore(tmp_path / engine)
        run_workload(spec, seed=3, store=store, engine=engine)
        documents[engine] = store_documents(tmp_path / engine)
    assert documents["oracle"] == documents["vector"]
    assert documents["oracle"]


# --------------------------------------------------------------------------- #
# a lineup universe (shared-engine serial path and store-backed runner)
# --------------------------------------------------------------------------- #
def test_lineup_universe_rep_identical():
    spec = get_universe("lineup-mini").scaled_to(n_channels=3, n_viewers=60)
    oracle = to_json(run_universe_rep(spec, 5, compute_engine="oracle"))
    vector = to_json(run_universe_rep(spec, 5, compute_engine="vector"))
    assert json.dumps(oracle, sort_keys=True) == json.dumps(
        vector, sort_keys=True
    )


def test_universe_store_documents_identical(tmp_path):
    spec = get_universe("lineup-mini").scaled_to(n_channels=3, n_viewers=60)
    documents = {}
    for engine in ENGINE_NAMES:
        store = ResultStore(tmp_path / engine)
        run_universe(spec, seed=5, store=store, compute_engine=engine)
        documents[engine] = store_documents(tmp_path / engine)
    assert documents["oracle"] == documents["vector"]
    assert documents["oracle"]


def test_universe_names_include_lineups():
    """The universes the suite exercises exist in the library."""
    assert "lineup-mini" in universe_names()


# --------------------------------------------------------------------------- #
# generated configurations (beyond the fixed cases above)
# --------------------------------------------------------------------------- #
@st.composite
def generated_sessions(draw):
    """A small session configuration plus a scripted three-period burst."""
    config = make_session_config(
        draw(st.integers(8, 48)),
        seed=draw(st.integers(0, 10_000)),
        dynamic=draw(st.booleans()),
        topology=draw(st.sampled_from(["", "metro", "lossy-edge"])),
        warmup=draw(st.sampled_from(["analytic", "simulated"])),
        warmup_duration=8.0,
        peer_classes=draw(st.sampled_from([(), IPTV_CLASSES])),
        max_time=40.0,
        old_stream_segments=300,
        lookahead=draw(st.sampled_from([60, 120])),
        run_full_horizon=draw(st.booleans()),
    )
    burst_start = draw(st.integers(2, 12))
    burst = PeriodDirective(
        leave_fraction=draw(st.sampled_from([None, 0.0, 0.2])),
        join_count=draw(st.sampled_from([None, 0, 5])),
        bandwidth_scale=draw(st.sampled_from([1.0, 0.5])),
        fail_fraction=draw(st.sampled_from([0.0, 0.15])),
        phase="burst",
    )
    return config, {burst_start + offset: burst for offset in range(3)}


@pytest.mark.parametrize("algorithm", ["normal", "fast"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=generated_sessions())
def test_generated_sessions_documents_identical(algorithm, case):
    config, directives = case
    oracle, vector = (
        normalized_run_document(
            SwitchSession(
                replace(config, algorithm=algorithm, engine=engine), directives=directives
            ).run()
        )
        for engine in ("oracle", "vector")
    )
    assert oracle == vector


@pytest.mark.parametrize("algorithm", ["normal", "fast"])
def test_churned_lossy_session_documents_and_probe_streams_identical(algorithm):
    """Churn on a lossy fabric: the vector decider files every peer's
    request rows in one batch, the session reads them in the period's
    shuffled order -- so the requests, the budget contention between them
    and every probe row come out as the oracle's."""
    config = _tiny(
        seed=23,
        algorithm=algorithm,
        topology="lossy-edge",
        churn=ChurnConfig(enabled=True, leave_fraction=0.05, join_fraction=0.05),
    )
    runs = []
    for engine in ("oracle", "vector"):
        with telemetry_session(probes=True) as telemetry:
            result = SwitchSession(replace(config, engine=engine)).run()
        lifecycle = telemetry.probes.lifecycle
        assert lifecycle.stage_counts()["dropped"] > 0
        runs.append((normalized_run_document(result), lifecycle.rows()))
    assert runs[0][0] == runs[1][0]  # store documents
    assert runs[0][1] == runs[1][1]  # probe lifecycle streams, row for row


@pytest.mark.parametrize("algorithm", ["fast", "normal"])
def test_library_algorithms_log_nothing(caplog, algorithm):
    with caplog.at_level(logging.DEBUG, logger="repro"):
        SwitchSession(_tiny(engine="vector", algorithm=algorithm, max_time=30.0)).run()
    assert [r for r in caplog.records if r.name.startswith("repro.core")] == []


# --------------------------------------------------------------------------- #
# engine selection surface
# --------------------------------------------------------------------------- #
def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        _tiny(engine="gpu")


def test_vector_session_class_dispatch():
    """There is one session class: the engine name picks its decider."""
    from repro.core.vector import VectorDecider
    from repro.streaming.session import OracleDecider

    deciders = {"oracle": OracleDecider, "vector": VectorDecider}
    assert set(deciders) == set(ENGINE_NAMES)
    for engine, decider in deciders.items():
        session = SwitchSession(_tiny(engine=engine))
        assert type(session) is SwitchSession
        assert type(session._decider) is decider
    with pytest.raises(ValueError, match="unknown engine"):
        _tiny(engine="gpu")
    # a config that names no engine runs on the declared default
    assert _tiny().engine == DEFAULT_ENGINE
    assert DEFAULT_ENGINE in ENGINE_NAMES


def test_documents_exercise_round_payloads():
    """record_rounds payloads flow through normalisation (sanity of helper)."""
    config = _tiny(seed=19, max_time=90.0, record_rounds=True)
    result = SwitchSession(config).run()
    document = normalized_run_document(result)
    assert "wallclock_seconds" not in document
