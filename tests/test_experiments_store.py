"""Tests for the persistent result store and its serialisation."""

import json
import re

import pytest

from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair
from repro.experiments.store import (
    KINDS,
    STORE_BACKENDS,
    MissingResultError,
    ResultStore,
    config_from_dict,
    config_to_dict,
    migrate_store,
    net_fingerprint,
    open_store,
    pair_fingerprint,
    session_result_from_dict,
    session_result_to_dict,
    sweep_fingerprint,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.experiments.sweeps import clear_sweep_cache, run_size_sweep
from repro.net.library import get_topology


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


@pytest.fixture(params=STORE_BACKENDS)
def any_store(request, tmp_path):
    """One store per backend: the whole contract suite runs against both."""
    return open_store(tmp_path, backend=request.param)


def _corrupt(store, key):
    """Plant an unparsable document under ``key``, whatever the backend."""
    if store.backend == "json":
        store.path_for(key).write_text("{not json", encoding="utf-8")
    else:
        with store._connect() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO documents "
                "(key, kind, created, code_version, description, size_bytes, payload) "
                "VALUES (?, '?', '', '', '', 0, '{not json')",
                (key,),
            )


def _tiny(n=36, seed=2, **overrides):
    overrides.setdefault("max_time", 70.0)
    overrides.setdefault("old_stream_segments", 400)
    overrides.setdefault("lookahead", 120)
    return make_session_config(n, seed=seed, **overrides)


OVERRIDES = {"max_time": 70.0, "old_stream_segments": 400, "lookahead": 120}


# --------------------------------------------------------------------------- #
# fingerprints and config serialisation
# --------------------------------------------------------------------------- #
def test_config_round_trips_through_dict():
    config = _tiny(dynamic=True)
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config


def test_pair_fingerprint_is_stable_and_algorithm_insensitive():
    config = _tiny()
    assert pair_fingerprint(config) == pair_fingerprint(config)
    # a pair holds both algorithms, so the key must not depend on the field
    assert pair_fingerprint(config.with_algorithm("normal")) == pair_fingerprint(config)


def test_pair_fingerprint_changes_with_seed_config_and_version():
    config = _tiny()
    assert pair_fingerprint(_tiny(seed=3)) != pair_fingerprint(config)
    assert pair_fingerprint(_tiny(n=40)) != pair_fingerprint(config)
    assert pair_fingerprint(config, version="other") != pair_fingerprint(config)


def test_sweep_fingerprint_covers_all_parameters():
    base = sweep_fingerprint([30, 40], dynamic=False, seed=0, repetitions=1)
    assert sweep_fingerprint([30, 40], dynamic=False, seed=0, repetitions=1) == base
    assert sweep_fingerprint([30], dynamic=False, seed=0, repetitions=1) != base
    assert sweep_fingerprint([30, 40], dynamic=True, seed=0, repetitions=1) != base
    assert sweep_fingerprint([30, 40], dynamic=False, seed=1, repetitions=1) != base
    assert sweep_fingerprint([30, 40], dynamic=False, seed=0, repetitions=2) != base
    assert sweep_fingerprint([30, 40], dynamic=False, seed=0, repetitions=1,
                             overrides={"max_time": 70.0}) != base
    # constituent pair keys rotate the sweep key (defaults changes propagate)
    assert sweep_fingerprint([30, 40], dynamic=False, seed=0, repetitions=1,
                             pair_keys=["pair-abc", "pair-def"]) != base


# --------------------------------------------------------------------------- #
# result serialisation
# --------------------------------------------------------------------------- #
def test_session_result_round_trips_exactly():
    pair = run_pair(_tiny())
    for result in (pair.normal, pair.fast):
        rebuilt = session_result_from_dict(
            json.loads(json.dumps(session_result_to_dict(result)))
        )
        assert rebuilt.config == result.config
        assert rebuilt.metrics == result.metrics
        assert rebuilt.switch_plan == result.switch_plan
        assert rebuilt.overhead_ratio == result.overhead_ratio
        assert rebuilt.overhead_series == result.overhead_series
        assert rebuilt.n_peers == result.n_peers
        assert rebuilt.n_rounds == result.n_rounds
        assert rebuilt.stop_reason == result.stop_reason


def test_sweep_round_trips_exactly_through_json():
    sweep = run_size_sweep([30, 36], seed=1, repetitions=2, overrides=OVERRIDES)
    rebuilt = sweep_from_dict(json.loads(json.dumps(sweep_to_dict(sweep))))
    assert rebuilt == sweep  # bit-identical floats, exact dataclass equality


# --------------------------------------------------------------------------- #
# the store itself (every test on both backends)
# --------------------------------------------------------------------------- #
def test_store_save_load_pair(any_store):
    store = any_store
    config = _tiny()
    pair = run_pair(config, store=store)
    key = pair_fingerprint(config)
    loaded = store.load(key, "pair")
    assert loaded is not None
    normal, fast = (session_result_from_dict(loaded[side]) for side in ("normal", "fast"))
    assert normal.metrics == pair.normal.metrics
    assert fast.metrics == pair.fast.metrics


def test_run_pair_replays_from_store_without_simulating(any_store, monkeypatch):
    store = any_store
    config = _tiny()
    first = run_pair(config, store=store)

    import repro.experiments.runner as runner_module

    def _boom(config):
        raise AssertionError("simulated despite a warm store")

    monkeypatch.setattr(runner_module, "run_single", _boom)
    second = run_pair(config, store=store)
    assert second.normal.metrics == first.normal.metrics
    assert second.fast.metrics == first.fast.metrics


def test_replay_only_store_raises_on_miss(tmp_path):
    for backend in STORE_BACKENDS:
        store = open_store(tmp_path / backend, backend=backend, replay_only=True)
        with pytest.raises(MissingResultError):
            run_pair(_tiny(), store=store)


def test_corrupt_documents_are_treated_as_misses(any_store):
    store = any_store
    key = pair_fingerprint(_tiny())
    _corrupt(store, key)
    assert store.load(key) is None


def test_corrupt_json_documents_are_listed_as_corrupt(tmp_path):
    store = ResultStore(tmp_path)
    _corrupt(store, pair_fingerprint(_tiny()))
    # entries() still lists (and labels) the unreadable document
    kinds = [entry.kind for entry in store.entries()]
    assert kinds == ["corrupt"]


def test_store_entries_and_clear(any_store):
    store = any_store
    run_size_sweep([30], seed=2, repetitions=1, overrides=OVERRIDES, store=store)
    entries = store.entries()
    assert sorted(entry.kind for entry in entries) == ["pair", "sweep"]
    assert all(entry.size_bytes > 0 for entry in entries)
    assert len(store) == 2
    assert store.clear() == 2
    assert len(store) == 0


def test_store_delete(any_store):
    store = any_store
    run_size_sweep([30], seed=2, repetitions=1, overrides=OVERRIDES, store=store)
    key = store.keys()[0]
    assert store.delete(key) is True
    assert store.load(key) is None
    assert key not in store.keys()
    assert store.delete(key) is False  # already gone


def test_store_entries_kind_and_limit_filters(any_store):
    store = any_store
    run_size_sweep([30], seed=2, repetitions=1, overrides=OVERRIDES, store=store)
    assert [e.kind for e in store.entries(kind="pair")] == ["pair"]
    assert [e.kind for e in store.entries(kind="sweep")] == ["sweep"]
    assert store.entries(kind="universe") == []
    assert len(store.entries(limit=1)) == 1
    assert len(store.entries(limit=10)) == 2
    # limit orders newest-first by the created timestamp
    newest = store.entries(limit=2)
    assert newest[0].created >= newest[1].created
    with pytest.raises(ValueError):
        store.entries(limit=-1)


def _scrub_volatile(node):
    """Drop the wall-clock fields that legitimately differ between runs."""
    if isinstance(node, dict):
        return {
            key: _scrub_volatile(value)
            for key, value in node.items()
            if key not in ("created", "wallclock_seconds")
        }
    if isinstance(node, list):
        return [_scrub_volatile(item) for item in node]
    return node


def test_backends_store_identical_documents(tmp_path):
    """The serialised document is byte-identical across backends."""
    config = _tiny()
    stores = {
        backend: open_store(tmp_path / backend, backend=backend)
        for backend in STORE_BACKENDS
    }
    for store in stores.values():
        run_pair(config, store=store)
    key = pair_fingerprint(config)
    docs = {
        backend: json.dumps(_scrub_volatile(store.load(key)), sort_keys=True)
        for backend, store in stores.items()
    }
    assert docs["json"] == docs["sqlite"]


def test_migrate_round_trips_losslessly(tmp_path):
    source = open_store(tmp_path / "src", backend="json")
    run_size_sweep([30], seed=2, repetitions=1, overrides=OVERRIDES, store=source)
    sqlite = open_store(tmp_path / "mid", backend="sqlite")
    assert migrate_store(source, sqlite) == 2
    back = open_store(tmp_path / "dst", backend="json")
    assert migrate_store(sqlite, back) == 2
    assert back.keys() == source.keys()
    for key in source.keys():
        # envelope included: created/code_version survive both hops verbatim
        assert back.load(key) == source.load(key)
    # and the migrated pair deserialises into live results
    pair_key = next(key for key in sqlite.keys() if key.startswith("pair-"))
    loaded = sqlite.load(pair_key, "pair")
    assert loaded is not None
    normal, fast = (session_result_from_dict(loaded[side]) for side in ("normal", "fast"))
    assert normal.metrics is not None and fast.metrics is not None


def test_clear_leaves_unrelated_files_alone(tmp_path):
    store = ResultStore(tmp_path)
    unrelated = tmp_path / "notes.json"
    unrelated.write_text("{}", encoding="utf-8")
    run_size_sweep([30], seed=2, repetitions=1, overrides=OVERRIDES, store=store)
    assert "notes" not in store.keys()  # foreign .json files are not entries
    assert store.clear() == 2
    assert unrelated.exists()  # only pair-*/sweep-* documents were deleted


def test_sweep_through_store_replays_exactly(any_store, monkeypatch):
    store = any_store
    kwargs = dict(seed=2, repetitions=2, overrides=OVERRIDES)
    first = run_size_sweep([30, 36], store=store, **kwargs)

    import repro.experiments.runner as runner_module

    monkeypatch.setattr(
        runner_module, "run_single",
        lambda config: (_ for _ in ()).throw(AssertionError("re-simulated")),
    )
    second = run_size_sweep([30, 36], store=store, **kwargs)
    assert second == first

    # even with the aggregated sweep entry removed, the pairs replay
    for key in store.keys():
        if key.startswith("sweep-"):
            store.delete(key)
    third = run_size_sweep([30, 36], store=store, **kwargs)
    assert third == first


def test_sweep_over_a_topology_stores_its_net_document(any_store):
    """A sweep's pairs enter the store through the same loop as ``run_pair``:
    over a topology, the ``net-*`` document is written with them."""
    store = any_store
    overrides = {"topology": "metro", "max_time": 60.0}
    run_size_sweep([30], overrides=overrides, store=store)
    assert sorted({entry.kind for entry in store.entries()}) == ["net", "pair", "sweep"]
    assert store.keys("net") == [net_fingerprint(get_topology("metro"))]
    # the pair document is the one run_pair writes: no net_key in it, then or now
    ((pair_key, pair_document),) = store.documents("pair")
    assert "net_key" not in pair_document
    alone = open_store(store.root / "alone", backend=store.backend)
    run_pair(make_session_config(30, record_rounds=False, **overrides), store=alone)
    assert _scrub_volatile(alone.load(pair_key)) == _scrub_volatile(pair_document)


# --------------------------------------------------------------------------- #
# the table of kinds is the only list of kinds
# --------------------------------------------------------------------------- #
def _document_of(kind):
    """A minimal document of ``kind`` with the fields its description reads."""
    return {
        "kind": kind,
        "config": {"n_nodes": 30, "seed": 1, "churn": {"enabled": True}},
        "params": {"sizes": [30], "seed": 1, "repetitions": 1, "dynamic": False},
        "workload": "w", "universe": "u", "seed": 1, "n_nodes": 30,
        "n_channels": 3, "n_viewers": 36,
        "topology": {"name": "metro", "regions": [{"name": "core"}]},
        "run": {"kind": "run", "name": "unit"}, "spans": {}, "trace": {"events": 0},
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_of_the_table_goes_through_the_generic_doors(any_store, kind):
    store = any_store
    for other in KINDS:  # one document of every kind, so that filters have something to drop
        store.save(f"{other}-0123", _document_of(other))
    key = f"{kind}-0123"
    assert store.load(key, kind)["kind"] == kind
    assert store.load(key)["key"] == key  # the envelope is stamped on every kind
    for other in set(KINDS) - {kind}:
        assert store.load(key, other) is None  # another kind is a miss, not an error
    assert [k for k, _ in store.documents(kind)] == store.keys(kind) == [key]
    assert store.documents(kind)[0][1] == store.load(key)
    (entry,) = store.entries(kind=kind)
    assert entry.key == key and entry.description
    assert store.keys() == sorted(f"{other}-0123" for other in KINDS)
    assert store.clear() == len(KINDS) and store.keys() == []


def test_store_ls_kind_choices_are_the_table_plus_the_run_alias(capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["store", "ls", "--kind", "nope"])
    offered = re.search(r"choose from (.*)\)", capsys.readouterr().err).group(1)
    assert [choice.strip("' ") for choice in offered.split(",")] == sorted(["run", *KINDS])


def test_a_replay_only_store_never_creates_anything(tmp_path):
    for backend in STORE_BACKENDS:
        root = tmp_path / backend / "not-there"
        store = open_store(root, backend=backend, replay_only=True)
        assert store.load("pair-0123") is None
        assert store.keys() == [] and store.entries() == [] and store.documents("pair") == []
        assert not root.exists() and not root.parent.exists()
