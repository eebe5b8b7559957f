"""One suite for the one fan-out: serial vs pooled, for every run kind.

Sweeps, workloads and universes all hand their independent units to
:class:`repro.dist.pool.WorkerPool`; ``workers=1`` runs the same units in
the calling process.  Whatever the kind, the two backends must write
**byte-identical store documents** (minus wallclock/timestamp fields), on
both store backends -- and a worker crash in the middle of a pooled run
must not change a single number.
"""

import json
import os

import pytest

import repro.experiments.parallel as parallel_module
from conftest import strip_volatile
from repro.channels.runner import run_universe
from repro.channels.universe import UniverseSpec
from repro.experiments.runner import run_pair
from repro.experiments.store import STORE_BACKENDS, open_store
from repro.experiments.sweeps import clear_sweep_cache, run_size_sweep
from repro.workloads.runner import run_workload
from repro.workloads.spec import Phase, WorkloadSpec

SWEEP_OVERRIDES = {"max_time": 70.0, "old_stream_segments": 400, "lookahead": 120}

ZAP_SPEC = WorkloadSpec(
    name="backend-zap",
    description="two quick zaps",
    n_nodes=40,
    base_leave_fraction=0.01,
    base_join_fraction=0.01,
    phases=(Phase("zap-1", 16.0, switch=True), Phase("zap-2", 16.0, switch=True)),
    session_overrides={"old_stream_segments": 400, "lookahead": 120},
)

TINY = UniverseSpec(
    name="backend-tiny",
    description="execution-backend universe",
    n_channels=4,
    n_viewers=48,
    zipf_exponent=1.0,
    min_audience=8,
    surfer_fraction=0.4,
    surfer_zap_rate=0.15,
    loyal_zap_rate=0.01,
    duration=16.0,
)

TINY_NET = UniverseSpec(
    name="backend-net-tiny",
    description="tiny lineup over the metro topology",
    n_channels=3,
    n_viewers=36,
    min_audience=8,
    surfer_fraction=0.3,
    surfer_zap_rate=0.1,
    loyal_zap_rate=0.01,
    duration=30.0,
    topology="metro",
)


def _sweep(store, workers):
    return run_size_sweep(
        [30, 36], seed=1, repetitions=2, overrides=SWEEP_OVERRIDES,
        workers=workers, store=store,
    )


def _workload(store, workers):
    return run_workload(ZAP_SPEC, seed=5, repetitions=2, workers=workers, store=store).reps


def _universe(store, workers):
    return run_universe(TINY, seed=0, repetitions=2, workers=workers, store=store).reps


def _net_universe(store, workers):
    return run_universe(TINY_NET, seed=0, workers=workers, store=store).reps


#: run kind -> ``(store, workers) -> comparable in-memory result``
RUN_KINDS = {
    "sweep": _sweep,
    "workload": _workload,
    "universe": _universe,
    "net-universe": _net_universe,
}


def _documents(store):
    """Every store document as canonical JSON, volatile fields dropped."""
    documents = {
        key: json.dumps(strip_volatile(store.load(key)), sort_keys=True)
        for key in store.keys()
    }
    assert documents, "nothing persisted"
    return documents


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_pooled_run_is_byte_identical_to_serial(tmp_path, kind, backend):
    serial_store = open_store(tmp_path / "serial", backend=backend)
    pooled_store = open_store(tmp_path / "pooled", backend=backend)
    serial = RUN_KINDS[kind](serial_store, 1)
    pooled = RUN_KINDS[kind](pooled_store, 2)
    assert pooled == serial  # exact dataclass equality: bit-identical floats
    assert _documents(pooled_store) == _documents(serial_store)
    # a universe's checkpoint journal never outlives a successful run
    assert not (pooled_store.root / "journal").exists()


def _crash_once_on_size_36(config):
    """``run_pair`` stand-in: hard-kill the worker on the first size-36 pair."""
    flag = os.path.join(os.environ["BACKEND_TEST_FLAGS"], "crashed")
    if config.n_nodes == 36 and not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os._exit(13)
    return run_pair(config)


def test_worker_crash_mid_sweep_is_retried_and_changes_nothing(tmp_path, monkeypatch):
    kwargs = dict(seed=1, repetitions=2, overrides=SWEEP_OVERRIDES)
    clear_sweep_cache()
    serial = run_size_sweep([30, 36], **kwargs)
    clear_sweep_cache()  # store-less sweeps are memoised regardless of workers

    monkeypatch.setenv("BACKEND_TEST_FLAGS", str(tmp_path))
    monkeypatch.setattr(parallel_module, "run_pair", _crash_once_on_size_36)
    try:
        pooled = run_size_sweep([30, 36], workers=2, **kwargs)
    finally:
        clear_sweep_cache()
    assert (tmp_path / "crashed").exists(), "the injected crash never fired"
    assert pooled == serial
