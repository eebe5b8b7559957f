"""The network layer through the multi-channel universe.

Pins the acceptance properties at the universe level: topology-bearing
specs round-trip and fingerprint, and store documents carry the ``net-*``
reference for replay.  (Serial shared-engine execution being bit-identical
to the pooled per-channel path is pinned, topology included, by
``tests/test_execution_backends.py``.)
"""

import pytest

from repro.channels.runner import run_universe, universe_fingerprint
from repro.channels.universe import UniverseSpec, channel_mesh_config, plan_universe
from repro.experiments.store import ResultStore
from repro.workloads.library import UNIVERSES, get_universe


TINY_NET = UniverseSpec(
    name="net-tiny",
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


class TestSpecTopology:
    def test_round_trips_exactly(self):
        assert UniverseSpec.from_dict(TINY_NET.to_dict()) == TINY_NET

    def test_old_payload_defaults_to_ideal(self):
        payload = TINY_NET.to_dict()
        del payload["topology"]
        assert UniverseSpec.from_dict(payload).topology == ""

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            UniverseSpec(name="bad", n_channels=2, n_viewers=24,
                         topology="atlantis")

    def test_topology_override_reserved(self):
        with pytest.raises(ValueError):
            UniverseSpec(name="bad", n_channels=2, n_viewers=24,
                         session_overrides=(("topology", "metro"),))

    def test_with_topology(self):
        moved = get_universe("lineup-mini").with_topology("transcontinental")
        assert moved.topology == "transcontinental"
        assert moved.n_channels == get_universe("lineup-mini").n_channels

    def test_topology_rotates_fingerprint(self):
        ideal = TINY_NET.with_topology("")
        assert universe_fingerprint(TINY_NET, 0) != universe_fingerprint(ideal, 0)

    def test_mesh_config_carries_topology(self):
        plan = plan_universe(TINY_NET, seed=0)
        config = channel_mesh_config(
            TINY_NET, plan.lineup.channels[0], plan.channel_seeds[0], "fast"
        )
        assert config.topology == "metro"

    def test_library_has_a_topology_universe(self):
        spec = get_universe("lineup-global")
        assert spec.topology == "transcontinental"
        assert "lineup-global" in UNIVERSES


class TestExecution:
    def test_store_documents_reference_net_key_and_replay(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_universe(TINY_NET, seed=0, store=store)
        assert first.simulated == 1
        universe_keys = [k for k in store.keys() if k.startswith("universe-")]
        net_keys = [k for k in store.keys() if k.startswith("net-")]
        assert len(universe_keys) == 1 and len(net_keys) == 1
        document = store.load(universe_keys[0], "universe")
        assert document["net_key"] == net_keys[0]
        assert store.load(net_keys[0], "net")["topology"]["name"] == "metro"
        # Pure replay: bit-identical, nothing simulated.
        replay_store = ResultStore(tmp_path, replay_only=True)
        replayed = run_universe(TINY_NET, seed=0, store=replay_store)
        assert replayed.simulated == 0 and replayed.replayed == 1
        assert replayed.reps == first.reps

    def test_ideal_universe_stores_no_net_document(self, tmp_path):
        store = ResultStore(tmp_path)
        run_universe(TINY_NET.with_topology(""), seed=0, store=store)
        assert not any(k.startswith("net-") for k in store.keys())
