"""Tests for the workload runner: pairing and store replay.

Serial-vs-pooled determinism lives in ``tests/test_execution_backends.py``.
"""

import pytest

from repro.experiments.store import ResultStore
from repro.workloads.runner import (
    rep_from_dict,
    rep_to_dict,
    run_workload,
    run_workload_rep,
    workload_fingerprint,
)
from repro.workloads.library import IPTV_CLASSES
from repro.workloads.spec import Phase, WorkloadSpec


@pytest.fixture(scope="module")
def zap_spec():
    """A small three-switch zapping spec (module-scoped: simulated once)."""
    return WorkloadSpec(
        name="test-zap",
        description="three quick zaps over classes",
        n_nodes=50,
        peer_classes=IPTV_CLASSES,
        base_leave_fraction=0.01,
        base_join_fraction=0.01,
        phases=(
            Phase("zap-1", 16.0, switch=True),
            Phase("zap-2", 16.0, switch=True),
            Phase("zap-3", 16.0, switch=True),
        ),
        session_overrides={"old_stream_segments": 400, "lookahead": 120},
    )


@pytest.fixture(scope="module")
def zap_rep(zap_spec):
    return run_workload_rep(zap_spec, seed=5)


def test_rep_runs_every_segment_paired(zap_rep):
    assert zap_rep.n_switches == 3
    assert [o.algorithm for o in zap_rep.normal] == ["normal"] * 3
    assert [o.algorithm for o in zap_rep.fast] == ["fast"] * 3
    for normal, fast in zip(zap_rep.normal, zap_rep.fast):
        assert normal.segment == fast.segment
        assert normal.n_peers == fast.n_peers  # identical populations (paired)


def test_rep_reports_per_switch_and_per_class_metrics(zap_rep):
    for outcome in zap_rep.fast:
        assert outcome.avg_switch_time > 0
        labels = {stats.peer_class for stats in outcome.per_class}
        assert labels == {"adsl", "cable", "fiber"}
        for stats in outcome.per_class:
            assert stats.peers > 0
            assert stats.p50 <= stats.p90 <= stats.p99
        assert len(outcome.per_phase) == 1
        assert 0.0 <= outcome.continuity <= 1.0


def test_segments_draw_different_switches(zap_rep):
    # Distinct per-segment seeds: the three zaps are not copies of each other.
    times = [o.avg_switch_time for o in zap_rep.fast]
    assert len(set(times)) > 1


def test_rep_dict_round_trip(zap_rep):
    assert rep_from_dict(rep_to_dict(zap_rep)) == zap_rep


def test_fingerprint_covers_spec_seed_and_version(zap_spec):
    base = workload_fingerprint(zap_spec, 0)
    assert base.startswith("workload-")
    assert workload_fingerprint(zap_spec, 1) != base
    assert workload_fingerprint(zap_spec.scaled_to(60), 0) != base
    assert workload_fingerprint(zap_spec, 0, version="other") != base
    assert workload_fingerprint(zap_spec, 0) == base


def test_store_round_trip_and_pure_replay(zap_spec, zap_rep, tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "results")
    result = run_workload(zap_spec, seed=5, store=store)
    assert result.simulated == 1 and result.replayed == 0
    assert result.reps[0] == zap_rep  # store-backed run equals direct run

    # Second run must replay without executing any simulation.
    import repro.workloads.runner as runner_module

    def _boom(spec, seed):
        raise AssertionError("simulated despite a warm store")

    monkeypatch.setattr(runner_module, "run_workload_rep", _boom)
    replayed = run_workload(zap_spec, seed=5, store=store)
    assert replayed.replayed == 1 and replayed.simulated == 0
    assert replayed.reps == result.reps  # bit-identical replay


def test_replay_only_store_raises_on_miss(zap_spec, tmp_path):
    store = ResultStore(tmp_path / "empty", replay_only=True)
    with pytest.raises(KeyError):
        run_workload(zap_spec, seed=99, store=store)


def test_repetitions_use_consecutive_seeds(zap_spec):
    result = run_workload(zap_spec, seed=5, repetitions=2)
    assert [rep.seed for rep in result.reps] == [5, 6]
    assert result.reps[0] != result.reps[1]


def test_result_tables_have_one_row_per_switch(zap_rep, zap_spec):
    result = run_workload(zap_spec, seed=5)
    rows = result.switch_rows()
    assert [row["switch"] for row in rows] == [1, 2, 3]
    assert all(row["reduction"] == pytest.approx(
        (row["normal_switch_time"] - row["fast_switch_time"]) / row["normal_switch_time"]
    ) for row in rows)
    class_rows = result.class_rows()
    assert {row["class"] for row in class_rows} == {"adsl", "cable", "fiber"}
    assert len(class_rows) == 9  # 3 switches x 3 classes
    assert len(result.phase_rows()) == 3


def test_invalid_runner_parameters():
    spec = WorkloadSpec(name="x", description="", n_nodes=50,
                        phases=(Phase("a", 5.0, switch=True),))
    with pytest.raises(ValueError):
        run_workload(spec, workers=0)
    with pytest.raises(ValueError):
        run_workload(spec, repetitions=0)
