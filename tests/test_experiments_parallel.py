"""Tests for the size sweep's fan-out: pair order, seeding and store integration.

The headline guarantee -- a pooled sweep is *bit-identical* to the serial
run at the same seed, because every ``(size, repetition)`` pair is an
independent simulation deterministically seeded with ``seed + repetition``
and aggregation consumes results in fixed task order -- is pinned for every
run kind at once by ``tests/test_execution_backends.py``.
"""

from types import SimpleNamespace

import pytest

import repro.experiments.sweeps as sweeps_module
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import clear_sweep_cache, run_size_sweep

OVERRIDES = {"max_time": 70.0, "old_stream_segments": 400, "lookahead": 120}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


def test_sweep_pairs_are_size_major_and_seeded_per_repetition(monkeypatch):
    configs = []

    def _recording_pair(config):
        configs.append(config)
        metrics = SimpleNamespace(avg_prepare_new=1.0, avg_finish_old=1.0)
        run = SimpleNamespace(metrics=metrics, overhead_ratio=0.0)
        return SimpleNamespace(normal=run, fast=run)

    monkeypatch.setattr(sweeps_module, "run_pair", _recording_pair)
    sweep = run_size_sweep([30, 40], seed=5, repetitions=2, overrides=OVERRIDES)
    assert [(c.n_nodes, c.seed) for c in configs] == [(30, 5), (30, 6), (40, 5), (40, 6)]
    assert [(p.n_nodes, p.repetitions) for p in sweep.points] == [(30, 2), (40, 2)]
    # sweep pairs never record per-round series (memory at scale)
    assert all(c.record_rounds is False for c in configs)
    assert all(c.max_time == 70.0 for c in configs)


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        run_size_sweep([30], seed=1, workers=0, overrides=OVERRIDES)


def test_repetitions_must_be_positive():
    with pytest.raises(ValueError):
        run_size_sweep([30], seed=1, repetitions=0, overrides=OVERRIDES)


def test_pairs_persist_incrementally_even_when_a_later_task_fails(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    real = sweeps_module.run_pair
    calls = []

    def _fail_on_second(config):
        calls.append(config)
        if len(calls) == 2:
            raise RuntimeError("simulated crash mid-sweep")
        return real(config)

    monkeypatch.setattr(sweeps_module, "run_pair", _fail_on_second)
    with pytest.raises(RuntimeError):
        run_size_sweep([30, 36], seed=1, repetitions=1, overrides=OVERRIDES, store=store)
    # the completed first pair survived the crash: the rerun resumes from it
    assert len([k for k in store.keys() if k.startswith("pair-")]) == 1


def test_storeless_sweeps_share_one_memo_regardless_of_workers():
    kwargs = dict(seed=3, repetitions=1, overrides=OVERRIDES)
    first = run_size_sweep([30], workers=2, **kwargs)
    # same parameterisation, different workers: served from the same memo,
    # so figures 6/7/8 share one sweep no matter how each was invoked
    assert run_size_sweep([30], workers=2, **kwargs) is first
    assert run_size_sweep([30], workers=1, **kwargs) is first
    assert run_size_sweep([30], workers=4, **kwargs) is first


def test_parallel_sweep_with_store_matches_and_replays(tmp_path, monkeypatch):
    kwargs = dict(seed=1, repetitions=2, overrides=OVERRIDES)
    serial = run_size_sweep([30, 36], **kwargs)

    store = ResultStore(tmp_path)
    parallel = run_size_sweep([30, 36], workers=2, store=store, **kwargs)
    assert parallel == serial
    # one pair document per (size, repetition) plus the aggregated sweep
    assert len([k for k in store.keys() if k.startswith("pair-")]) == 4
    assert len([k for k in store.keys() if k.startswith("sweep-")]) == 1

    # a repeated invocation never reaches the executor
    monkeypatch.setattr(
        sweeps_module, "run_pair",
        lambda config: (_ for _ in ()).throw(AssertionError("re-simulated")),
    )
    replay = run_size_sweep([30, 36], workers=2, store=store, **kwargs)
    assert replay == serial


def test_partial_store_runs_only_missing_pairs(tmp_path):
    store = ResultStore(tmp_path)
    kwargs = dict(seed=1, repetitions=1, overrides=OVERRIDES)
    run_size_sweep([30], store=store, **kwargs)
    assert len([k for k in store.keys() if k.startswith("pair-")]) == 1

    # extending the sweep reuses the stored size-30 pair and adds size 36
    extended = run_size_sweep([30, 36], store=store, **kwargs)
    assert [p.n_nodes for p in extended.points] == [30, 36]
    assert len([k for k in store.keys() if k.startswith("pair-")]) == 2
    # the size-30 point is identical to the one computed from the store alone
    alone = run_size_sweep([30], store=store, **kwargs)
    assert extended.points[0] == alone.points[0]


def test_replay_only_store_raises_for_missing_sweep(tmp_path):
    store = ResultStore(tmp_path, replay_only=True)
    from repro.experiments.store import MissingResultError

    with pytest.raises(MissingResultError):
        run_size_sweep([30], seed=1, repetitions=1, overrides=OVERRIDES, store=store)
