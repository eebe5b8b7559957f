"""Integration tests: the network fabric threaded through sessions.

Covers the tentpole acceptance properties:

* the default (ideal) fabric consumes no randomness and leaves every
  result field exactly as the network-oblivious simulator produced it;
* a topology session assigns regions, delays deliveries, drops and
  retries, and still completes the switch;
* paired fast-vs-normal runs over ``transcontinental`` stay paired and
  the fast algorithm wins in every region;
* results round-trip through the store (``fabric_stats`` included) and
  latency runs persist ``net-*`` documents.
"""

import numpy as np
import pytest

from repro.experiments.config import make_session_config
from repro.experiments.runner import run_pair, run_single
from repro.experiments.store import (
    ResultStore,
    config_to_dict,
    net_fingerprint,
    session_result_to_dict,
)
from repro.metrics.net import (
    fabric_stats_rows,
    per_region_switch_stats,
    region_comparison_rows,
)
from repro.net.fabric import IdealFabric, LatencyFabric
from repro.net.library import get_topology
from repro.net.topology import NetTopology, Region
from repro.obs.telemetry import telemetry_session
from repro.records import from_json
from repro.streaming.session import ENGINE_NAMES, SessionConfig, SessionResult, SwitchSession


def small_config(n_nodes=80, **overrides):
    defaults = dict(seed=1, max_time=80.0)
    defaults.update(overrides)
    return make_session_config(n_nodes, **defaults)


class TestIdealDefault:
    def test_default_session_uses_ideal_fabric(self):
        session = SwitchSession(small_config(n_nodes=40, max_time=10.0))
        assert isinstance(session.fabric, IdealFabric)
        assert not session.membership.locality_enabled

    def test_ideal_run_has_no_regions_and_empty_stats(self):
        result = run_single(small_config(n_nodes=60, max_time=60.0))
        assert result.fabric_stats == {}
        assert all(outcome.region == "" for outcome in result.metrics.outcomes)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(n_nodes=40, topology="atlantis")


class TestTopologySession:
    def test_regions_assigned_and_switch_completes(self):
        result = run_single(small_config(n_nodes=80, topology="transcontinental"))
        regions = {o.region for o in result.metrics.outcomes}
        assert regions <= {"na-east", "na-west", "europe", "asia"}
        assert len(regions) >= 2, "expected a multi-region population"
        assert result.metrics.unfinished == 0
        stats = result.fabric_stats
        assert stats["messages"] > 0
        assert stats["dropped"] > 0  # 1% lossy last miles
        assert stats["mean_delay_s"] > 0.03  # transcontinental paths

    def test_latency_session_enables_locality(self):
        session = SwitchSession(small_config(n_nodes=60, topology="transcontinental",
                                             max_time=10.0))
        assert isinstance(session.fabric, LatencyFabric)
        assert session.membership.locality_enabled

    def test_deterministic_from_seed(self):
        a = run_single(small_config(n_nodes=60, topology="metro", max_time=60.0))
        b = run_single(small_config(n_nodes=60, topology="metro", max_time=60.0))
        assert a.metrics.outcomes == b.metrics.outcomes
        assert a.fabric_stats == b.fabric_stats

    def test_latency_lengthens_fast_switch_time(self):
        ideal = run_single(small_config(n_nodes=80))
        latency = run_single(small_config(n_nodes=80, topology="transcontinental"))
        assert latency.metrics.avg_switch_time > ideal.metrics.avg_switch_time

    def test_explicit_fabric_override(self):
        topology = get_topology("metro")
        fabric = LatencyFabric(topology, np.random.default_rng(5))
        session = SwitchSession(small_config(n_nodes=40, max_time=10.0), fabric=fabric)
        assert session.fabric is fabric
        assert all(
            fabric.region_of(node_id) in topology.region_names
            for node_id in session.peers
        )


def one_region_topology(name, path_ms, **last_mile):
    """One region whose one-way delay is ``path_ms``: exactly, unless
    ``last_mile`` adds a last-mile delay, jitter or loss to it."""
    region = dict(last_mile_ms=0.0, jitter_ms=0.0, loss=0.0)
    region.update(last_mile)
    return NetTopology(
        name=name,
        regions=(Region("only", weight=1.0, **region),),
        latency_ms=((path_ms,),),
    )


def one_second_topology():
    """One lossless, jitter-free region whose one-way delay is exactly tau."""
    return one_region_topology("one-second", 1000.0)


class TestDelayedDeliveries:
    def test_segment_in_flight_to_a_departed_peer_evaporates(self):
        config = small_config(n_nodes=40, max_time=10.0, topology="transcontinental")
        with telemetry_session(probes=True) as telemetry:
            session = SwitchSession(config)
            leaver, stayer = sorted(session.peers)[:2]
            seg_id = session.switch_plan.id_begin + 5
            leaver_node, stayer_node = session.peers[leaver], session.peers[stayer]
            assert seg_id not in leaver_node.buffer and seg_id not in stayer_node.buffer
            # deliveries in flight are records on the session's calendar:
            # (arrival, sending period, send order, receiver, segment, supplier, delay)
            arrival = session.now + 0.25
            session._calendar.append((arrival, 0, 1, leaver, seg_id, stayer, 0.25))
            session._calendar.append((arrival, 0, 2, stayer, seg_id, leaver, 0.25))
            session._remove_peer(leaver)
            assert len(session._calendar) == 2  # nothing lands between two periods
            assert seg_id not in stayer_node.buffer
            session.step()  # the next period boundary drains what is due
        assert seg_id in stayer_node.buffer
        assert seg_id not in leaver_node.buffer
        assert leaver not in session.peers
        landed = [row for row in telemetry.probes.lifecycle.rows()
                  if row["stage"] == "delivered" and row["seg"] == seg_id]
        assert landed == [{"time": arrival, "period": 0, "peer": stayer, "seg": seg_id,
                           "stage": "delivered", "supplier": leaver, "value": 0.25}]
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["fabric.deliveries_evaporated"] == 1
        assert counters["fabric.deliveries_arrived"] == 1

    @pytest.mark.parametrize("path_ms", [None, 1400.0], ids=["transcontinental", "slow-wan"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_every_delayed_segment_arrives_evaporates_or_is_in_flight(self, engine, path_ms):
        """Conservation, from the telemetry counters alone.  Under churn a
        segment can only evaporate on a path longer than a period: a shorter
        one lands at the next boundary, before that period's leavers go."""
        config = small_config(n_nodes=60, max_time=60.0, dynamic=True, engine=engine,
                              topology="transcontinental")
        fabric = None
        if path_ms is not None:
            slow = one_region_topology("slow-wan", path_ms, last_mile_ms=50.0,
                                       jitter_ms=100.0, loss=0.01)
            fabric = LatencyFabric(slow, np.random.default_rng(0))

        def unaccounted():
            counters = telemetry.registry.snapshot()["counters"]
            return (counters["fabric.deliveries_delayed"]
                    - counters["fabric.deliveries_arrived"]
                    - counters["fabric.deliveries_evaporated"])

        with telemetry_session() as telemetry:
            session = SwitchSession(config, fabric=fabric)
            for _ in range(5):
                assert session.step()  # one period
            assert unaccounted() == len(session._calendar) > 0
            while session.step():
                assert unaccounted() == len(session._calendar)
            assert session.finished
            assert unaccounted() == len(session._calendar) > 0  # in flight at the stop
            counters = telemetry.registry.snapshot()["counters"]
        assert counters["fabric.deliveries_arrived"] > 1000
        assert (counters["fabric.deliveries_evaporated"] > 0) == (path_ms is not None)

    def test_delivery_arriving_on_a_round_timestamp_runs_after_that_round(self):
        """The tie rule: a segment requested in round ``k`` over a path of
        exactly ``tau`` arrives at round ``k + 1``'s timestamp with the same
        priority but a later insertion, so round ``k + 1`` runs first and
        the delivery is stamped with period ``k + 1``."""
        config = small_config(n_nodes=40, max_time=40.0)
        fabric = LatencyFabric(one_second_topology(), np.random.default_rng(0))
        with telemetry_session(probes=True) as telemetry:
            session = SwitchSession(config, fabric=fabric)
            start = session.now
            session.run()
        delivered = [
            row for row in telemetry.probes.lifecycle.rows() if row["stage"] == "delivered"
        ]
        assert len(delivered) > 100
        for row in delivered:
            assert row["value"] == config.tau  # the sampled delay
            assert row["time"] == start + row["period"] * config.tau, row

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_delivery_arriving_two_rounds_later_runs_before_that_round(self, engine):
        """The other side of the tie: a segment requested in round ``k`` over
        a path of exactly ``2 * tau`` lands on round ``k + 2``'s timestamp,
        but it was sent before round ``k + 1`` scheduled round ``k + 2``, so
        it is applied *before* that round and stamped with period ``k + 1``.
        The literals were computed on the event queue, one engine event
        per delayed segment."""
        config = small_config(n_nodes=40, max_time=40.0, engine=engine)
        two_seconds = one_region_topology("two-second", 2000.0)
        fabric = LatencyFabric(two_seconds, np.random.default_rng(0))
        with telemetry_session(probes=True) as telemetry:
            session = SwitchSession(config, fabric=fabric)
            start = session.now
            result = session.run()
        delivered = [
            row for row in telemetry.probes.lifecycle.rows() if row["stage"] == "delivered"
        ]
        assert (result.n_rounds, len(delivered)) == (31, 9128)
        assert delivered[0] == {"time": 3.0, "period": 2, "peer": 13, "seg": 875,
                                "stage": "delivered", "supplier": 27, "value": 2.0}
        assert delivered[-1] == {"time": 31.0, "period": 30, "peer": 11, "seg": 979,
                                 "stage": "delivered", "supplier": 37, "value": 2.0}
        for row in delivered:
            assert row["value"] == 2 * config.tau  # the sampled delay
            assert row["time"] == start + (row["period"] + 1) * config.tau, row


class TestPairedTranscontinental:
    @pytest.fixture(scope="class")
    def pair(self):
        return run_pair(small_config(n_nodes=100, topology="transcontinental"))

    def test_paired_region_assignment_identical(self, pair):
        normal = {o.node_id: o.region for o in pair.normal.metrics.outcomes}
        fast = {o.node_id: o.region for o in pair.fast.metrics.outcomes}
        assert normal == fast

    def test_fast_beats_normal_in_every_region(self, pair):
        rows = region_comparison_rows(
            pair.normal.metrics.outcomes,
            pair.fast.metrics.outcomes,
            horizon=pair.normal.metrics.horizon,
        )
        assert len(rows) == 4
        for row in rows:
            assert row["fast_switch_time"] < row["normal_switch_time"], row
            assert row["reduction"] > 0

    def test_per_region_stats_cover_all_peers(self, pair):
        stats = per_region_switch_stats(
            pair.fast.metrics.outcomes, horizon=pair.fast.metrics.horizon
        )
        assert sum(s.peers for s in stats) == pair.fast.metrics.n_peers
        for s in stats:
            assert s.p50 <= s.p90
            assert s.mean > 0

    def test_latency_widens_the_fast_switch_advantage(self):
        # The shipped comparison (examples/latency_regions.py): at 150
        # peers, seed 1, the transcontinental fabric widens the paired
        # fast-vs-normal gap -- in absolute seconds and in reduction ratio.
        ideal = run_pair(small_config(n_nodes=150, max_time=90.0))
        latency = run_pair(
            small_config(n_nodes=150, max_time=90.0, topology="transcontinental")
        )
        ideal_gap = (
            ideal.normal.metrics.avg_switch_time - ideal.fast.metrics.avg_switch_time
        )
        latency_gap = (
            latency.normal.metrics.avg_switch_time
            - latency.fast.metrics.avg_switch_time
        )
        assert latency_gap > ideal_gap
        assert latency.switch_time_reduction > ideal.switch_time_reduction

    def test_fabric_stats_rows_printable(self, pair):
        rows = fabric_stats_rows(pair.fast.fabric_stats)
        assert {row["metric"] for row in rows} == {
            "net messages", "net dropped", "net drop_ratio", "net mean_delay_s"
        }


class TestStoreIntegration:
    def test_config_topology_round_trips(self):
        config = small_config(n_nodes=60, topology="metro")
        assert from_json(SessionConfig, config_to_dict(config)) == config

    def test_old_config_payload_defaults_to_ideal(self):
        payload = config_to_dict(small_config(n_nodes=60))
        del payload["topology"]  # a pre-net-layer document
        assert from_json(SessionConfig, payload).topology == ""

    def test_session_result_round_trips_with_fabric_stats(self):
        result = run_single(small_config(n_nodes=60, topology="metro", max_time=60.0))
        rebuilt = from_json(SessionResult, session_result_to_dict(result))
        assert rebuilt.fabric_stats == result.fabric_stats
        assert rebuilt.metrics.outcomes == result.metrics.outcomes

    def test_pair_replay_and_net_document(self, tmp_path):
        store = ResultStore(tmp_path)
        config = small_config(n_nodes=60, topology="metro", max_time=60.0)
        first = run_pair(config, store=store)
        # The topology was persisted as a net-* document...
        topology = get_topology("metro")
        key = net_fingerprint(topology)
        assert from_json(NetTopology, store.load(key, "net")["topology"]) == topology
        assert any(k.startswith("net-") for k in store.keys())
        # ...and the pair replays bit-identically from disk.
        replayed = run_pair(config, store=store)
        assert replayed.normal.metrics.outcomes == first.normal.metrics.outcomes
        assert replayed.fast.fabric_stats == first.fast.fabric_stats

    def test_ideal_pair_persists_no_net_document(self, tmp_path):
        store = ResultStore(tmp_path)
        run_pair(small_config(n_nodes=60, max_time=60.0), store=store)
        assert not any(k.startswith("net-") for k in store.keys())
