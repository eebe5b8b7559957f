"""One suite for the one fan-out: serial vs pooled, for every run kind.

Sweeps, workloads and universes all hand their independent units to
:class:`repro.dist.pool.WorkerPool`; ``workers=1`` runs the same units in
the calling process.  Whatever the kind, the two backends must write
**byte-identical store documents** (minus wallclock/timestamp fields), on
both store backends -- and a worker crash in the middle of a pooled run
must not change a single number.

Whatever the kind, the runner also enters the store through the one
``replay_or_execute`` loop, whose contract is pinned here once for all of
them: a hit replays without executing, a replay-only miss names the first
missing key, an interrupted run keeps the units it had saved.
"""

import json
import os

import pytest

import repro.channels.runner as universe_runner_module
import repro.experiments.runner as runner_module
import repro.experiments.sweeps as sweeps_module
import repro.workloads.runner as workload_runner_module
from conftest import strip_volatile
from repro.channels.runner import run_universe
from repro.channels.universe import UniverseSpec
from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair
from repro.experiments.store import (
    STORE_BACKENDS,
    MissingResultError,
    open_store,
    replay_or_execute,
)
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
    monkeypatch.setattr(sweeps_module, "run_pair", _crash_once_on_size_36)
    try:
        pooled = run_size_sweep([30, 36], workers=2, **kwargs)
    finally:
        clear_sweep_cache()
    assert (tmp_path / "crashed").exists(), "the injected crash never fired"
    assert pooled == serial


# --------------------------------------------------------------------------- #
# the one replay-or-execute loop, through every runner
# --------------------------------------------------------------------------- #
def _pair(store, workers):
    config = make_session_config(30, seed=4, **SWEEP_OVERRIDES)
    return run_pair(config, store=store).comparison()


#: the fan-out kinds plus the one runner that has nothing to fan out
LOOP_KINDS = {**RUN_KINDS, "pair": _pair}


class _Interrupted(Exception):
    pass


class _LoopSpy:
    """Stands between the runners and ``replay_or_execute``: records each
    call's unit keys and which units ran, and can interrupt ``execute``
    between its first and its second unit."""

    def __init__(self):
        self.keys, self.executed, self.interrupt = [], [], False

    def __call__(self, store, kind, keys, *, execute, **rest):
        if store is None:  # a sweep's pending pairs, each simulated by a storeless run_pair
            return replay_or_execute(store, kind, keys, execute=execute, **rest)
        self.keys = list(keys)

        def observed(pending):
            for index, result in zip(pending, execute(pending)):
                if self.interrupt and self.executed:
                    raise _Interrupted
                self.executed.append(keys[index])
                yield result

        return replay_or_execute(store, kind, keys, execute=observed, **rest)


@pytest.fixture
def loop_spy(monkeypatch):
    spy = _LoopSpy()
    for module in (runner_module, workload_runner_module, universe_runner_module):
        monkeypatch.setattr(module, "replay_or_execute", spy)
    clear_sweep_cache()
    return spy


def _drop_sweep_aggregates(store):
    """A sweep also stores its aggregate; without it, it is back to its pairs."""
    for key in store.keys("sweep"):
        store.delete(key)


@pytest.mark.parametrize("kind", sorted(LOOP_KINDS))
def test_a_hit_replays_without_executing(tmp_path, loop_spy, kind):
    store = open_store(tmp_path)
    first = LOOP_KINDS[kind](store, 1)
    assert loop_spy.executed == loop_spy.keys  # cold: every unit ran, in key order
    _drop_sweep_aggregates(store)
    loop_spy.executed.clear()
    assert LOOP_KINDS[kind](open_store(tmp_path, replay_only=True), 1) == first
    assert loop_spy.executed == []


@pytest.mark.parametrize("kind", sorted(LOOP_KINDS))
def test_a_replay_only_miss_names_the_first_missing_key(tmp_path, loop_spy, kind):
    store = open_store(tmp_path)
    LOOP_KINDS[kind](store, 1)
    _drop_sweep_aggregates(store)
    victim = loop_spy.keys[-1]
    assert store.delete(victim)
    loop_spy.executed.clear()
    with pytest.raises(MissingResultError) as error:
        LOOP_KINDS[kind](open_store(tmp_path, replay_only=True), 1)
    assert error.value.key == victim
    assert loop_spy.executed == []  # refused before anything ran


@pytest.mark.parametrize("kind", ["sweep", "universe", "workload"])  # the multi-unit kinds
def test_an_interrupted_run_keeps_the_units_it_saved(tmp_path, loop_spy, kind):
    reference = RUN_KINDS[kind](open_store(tmp_path / "reference"), 1)
    store = open_store(tmp_path / "interrupted")
    loop_spy.executed.clear()
    loop_spy.interrupt = True
    with pytest.raises(_Interrupted):
        RUN_KINDS[kind](store, 1)
    (saved,) = loop_spy.executed
    assert [key for key in store.keys() if not key.startswith("net-")] == [saved]
    # the rerun simulates the remainder only, and nothing shows the seam
    loop_spy.interrupt = False
    loop_spy.executed.clear()
    assert RUN_KINDS[kind](store, 1) == reference
    assert loop_spy.executed == loop_spy.keys[1:]
    assert _documents(store) == _documents(open_store(tmp_path / "reference"))
