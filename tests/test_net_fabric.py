"""Tests for the link model, the fabrics and locality-aware membership."""

import numpy as np
import pytest

from repro.net.fabric import IdealFabric, LatencyFabric, build_fabric
from repro.net.library import get_topology
from repro.net import link as link_module
from repro.net.link import LinkModel
from repro.net.topology import NetTopology, Region
from repro.overlay.membership import MembershipService
from repro.overlay.topology import NodeInfo, Overlay


def make_topology(loss_a=0.0, loss_b=0.0, jitter=2.0):
    return NetTopology(
        name="ab",
        regions=(
            Region("a", weight=0.5, last_mile_ms=5.0, jitter_ms=jitter, loss=loss_a),
            Region("b", weight=0.5, last_mile_ms=10.0, jitter_ms=jitter, loss=loss_b),
        ),
        latency_ms=((1.0, 50.0), (50.0, 2.0)),
    )


class ScalarDrawReference:
    """The scalar-draw link model and region draws the block stream replaced.

    One ``Generator.random()`` per loss decision, one
    ``Generator.uniform(-1.0, 1.0)`` per jitter offset and one
    ``Generator.choice(n, p=weights)`` per region draw, all from one
    generator, in call order.
    """

    def __init__(self, topology, rng):
        self.topology = topology
        self.rng = rng
        self.messages = self.dropped = 0
        self.total_delay = 0.0

    def assign_regions(self, count):
        weights = np.asarray(self.topology.weights, dtype=float)
        draws = self.rng.choice(self.topology.n_regions, size=count, p=weights)
        return [int(draw) for draw in draws]

    def assign_joiner(self):
        weights = np.asarray(self.topology.weights, dtype=float)
        return int(self.rng.choice(self.topology.n_regions, p=weights))

    def transfer(self, src, dst):
        regions = self.topology.regions
        self.messages += 1
        loss = 1.0 - (1.0 - regions[src].loss) * (1.0 - regions[dst].loss)
        if loss > 0.0 and float(self.rng.random()) < loss:
            self.dropped += 1
            return None
        delay = (
            self.topology.latency_ms[src][dst]
            + regions[src].last_mile_ms
            + regions[dst].last_mile_ms
        ) / 1000.0
        jitter = (regions[src].jitter_ms + regions[dst].jitter_ms) / 1000.0
        if jitter > 0.0:
            delay += jitter * float(self.rng.uniform(-1.0, 1.0))
        delay = max(0.0, delay)
        self.total_delay += delay
        return delay


@pytest.mark.parametrize("topology_name", ["transcontinental", "lossy-edge", "metro"])
@pytest.mark.parametrize("seed", [0, 7])
def test_block_stream_matches_scalar_draw_reference(topology_name, seed):
    """Same seed, same doubles in the same order: the block-served fabric
    reproduces the scalar-draw reference bit for bit, across block refills
    and with joiner region draws interleaved between messages."""
    topology = get_topology(topology_name)
    fabric = LatencyFabric(topology, np.random.default_rng(seed))
    reference = ScalarDrawReference(topology, np.random.default_rng(seed))

    n_nodes = 60
    fabric.assign_regions(range(n_nodes))
    expected_regions = reference.assign_regions(n_nodes)
    assert [fabric.region_index_of(node) for node in range(n_nodes)] == expected_regions

    script = np.random.default_rng(1000 + seed)
    n_messages = 3 * link_module._BLOCK  # up to two variates each: several refills
    for step in range(n_messages):
        if step % 97 == 0:
            n_nodes += 1
            fabric.assign_joiner(n_nodes - 1)
            expected_regions.append(reference.assign_joiner())
            assert fabric.region_index_of(n_nodes - 1) == expected_regions[-1]
        src, dst = (int(node) for node in script.integers(0, n_nodes, size=2))
        transfer = fabric.control_transfer if step % 2 else fabric.data_transfer
        assert transfer(src, dst) == reference.transfer(
            expected_regions[src], expected_regions[dst]
        ), step

    link = fabric.link
    assert link.messages == reference.messages == n_messages
    assert link.dropped == reference.dropped
    assert link.total_delay == reference.total_delay
    if topology_name != "metro":
        assert link.dropped > 0


def test_pinned_joiner_still_consumes_its_region_draw():
    """Pinning one joiner leaves every later variate of the stream in place."""
    topology = get_topology("transcontinental")
    free = LatencyFabric(topology, np.random.default_rng(3))
    pinned = LatencyFabric(topology, np.random.default_rng(3))
    free.assign_joiner(0)
    pinned.assign_joiner(0, region=topology.region_names[-1])
    assert pinned.region_of(0) == topology.region_names[-1]
    free.assign_joiner(1)
    pinned.assign_joiner(1)
    assert free.region_of(1) == pinned.region_of(1)
    assert [free.data_transfer(1, 1) for _ in range(20)] == [
        pinned.data_transfer(1, 1) for _ in range(20)
    ]


class TestLinkModel:
    def test_deterministic_from_seed(self):
        topo = make_topology(loss_a=0.1)
        a = LinkModel(topo, np.random.default_rng(7))
        b = LinkModel(topo, np.random.default_rng(7))
        seq_a = [a.transfer(0, 1) for _ in range(50)]
        seq_b = [b.transfer(0, 1) for _ in range(50)]
        assert seq_a == seq_b

    def test_lossless_path_never_drops(self):
        link = LinkModel(make_topology(), np.random.default_rng(0))
        delays = [link.transfer(0, 1) for _ in range(200)]
        assert all(d is not None for d in delays)
        assert link.dropped == 0

    def test_delay_within_jitter_bounds(self):
        link = LinkModel(make_topology(), np.random.default_rng(0))
        # path a->b: backbone 50 + last miles 5 + 10 = 65 ms, jitter +-4 ms
        for _ in range(100):
            delay = link.transfer(0, 1)
            assert 0.061 <= delay <= 0.069

    def test_loss_rate_roughly_matches(self):
        link = LinkModel(make_topology(loss_a=0.2, loss_b=0.2), np.random.default_rng(1))
        n = 3000
        for _ in range(n):
            link.transfer(0, 1)
        # combined loss = 1 - 0.8 * 0.8 = 0.36
        assert link.dropped / n == pytest.approx(0.36, abs=0.04)
        assert link.loss_probability(0, 1) == pytest.approx(0.36)

    def test_intra_region_faster_than_cross_region(self):
        link = LinkModel(make_topology(jitter=0.0), np.random.default_rng(0))
        assert link.base_delay(0, 0) < link.base_delay(0, 1)


class TestIdealFabric:
    def test_constants_and_no_randomness(self):
        fabric = IdealFabric()
        fabric.assign_regions([1, 2, 3])
        fabric.assign_joiner(4)
        assert fabric.region_of(1) == ""
        assert fabric.region_index_of(1) is None
        assert fabric.control_transfer(1, 2) == 0.0
        assert fabric.data_transfer(1, 2) == 0.0
        assert fabric.locality_bias == 1.0
        assert fabric.stats() == {}

    def test_build_fabric_dispatch(self):
        assert isinstance(build_fabric(None, None), IdealFabric)
        fabric = build_fabric(make_topology(), np.random.default_rng(0))
        assert isinstance(fabric, LatencyFabric)
        with pytest.raises(ValueError):
            build_fabric(make_topology(), None)


class TestLatencyFabric:
    def test_assignment_deterministic_and_order_insensitive(self):
        topo = make_topology()
        a = LatencyFabric(topo, np.random.default_rng(3))
        b = LatencyFabric(topo, np.random.default_rng(3))
        a.assign_regions([5, 1, 9, 2])
        b.assign_regions([2, 9, 1, 5])  # same set, different order
        for node in (1, 2, 5, 9):
            assert a.region_of(node) == b.region_of(node)

    def test_pinning_wins_without_perturbing_others(self):
        topo = make_topology()
        free = LatencyFabric(topo, np.random.default_rng(3))
        pinned = LatencyFabric(topo, np.random.default_rng(3))
        nodes = list(range(20))
        free.assign_regions(nodes)
        pinned.assign_regions(nodes, pinned={7: "b"})
        assert pinned.region_of(7) == "b"
        for node in nodes:
            if node != 7:
                assert pinned.region_of(node) == free.region_of(node)

    def test_joiner_assignment_and_pin(self):
        fabric = LatencyFabric(make_topology(), np.random.default_rng(0))
        fabric.assign_joiner(100)
        assert fabric.region_of(100) in ("a", "b")
        fabric.assign_joiner(101, region="a")
        assert fabric.region_of(101) == "a"

    def test_weighted_assignment_follows_region_weights(self):
        topo = NetTopology(
            name="skew",
            regions=(Region("big", weight=0.9), Region("small", weight=0.1)),
            latency_ms=((1.0, 10.0), (10.0, 1.0)),
        )
        fabric = LatencyFabric(topo, np.random.default_rng(0))
        fabric.assign_regions(range(1000))
        counts = fabric.region_counts()
        assert counts["big"] / 1000 == pytest.approx(0.9, abs=0.05)

    def test_stats_accumulate(self):
        fabric = LatencyFabric(make_topology(loss_a=0.3, loss_b=0.3),
                               np.random.default_rng(2))
        fabric.assign_regions([1, 2])
        for _ in range(200):
            fabric.data_transfer(1, 2)
        stats = fabric.stats()
        assert stats["messages"] == 200
        assert stats["dropped"] > 0
        assert 0 < stats["drop_ratio"] < 1
        assert stats["mean_delay_s"] > 0

    def test_unknown_node_treated_as_local(self):
        fabric = LatencyFabric(make_topology(), np.random.default_rng(0))
        assert fabric.data_transfer(404, 405) == 0.0

    def test_library_topology_fabric(self):
        fabric = LatencyFabric(get_topology("transcontinental"),
                               np.random.default_rng(0))
        fabric.assign_regions(range(50))
        regions = {fabric.region_of(n) for n in range(50)}
        assert regions <= {"na-east", "na-west", "europe", "asia"}


def complete_overlay(n):
    overlay = Overlay()
    for node_id in range(n):
        overlay.add_node(NodeInfo(node_id=node_id))
    return overlay


class TestLocalityAwareMembership:
    def test_bias_prefers_same_region_partners(self):
        # Nodes 0..9 in region 0, 10..19 in region 1; node 0 picks partners.
        overlay = complete_overlay(20)
        service = MembershipService(overlay, 5, np.random.default_rng(0))
        service.set_locality(lambda n: 0 if n < 10 else 1, bias=50.0)
        assert service.locality_enabled
        same = 0
        total = 0
        for _ in range(40):
            added = service.repair([0])
            for neighbour in overlay.neighbours(0):
                total += 1
                if neighbour < 10:
                    same += 1
            for neighbour in list(overlay.neighbours(0)):
                overlay.remove_edge(0, neighbour)
        # With bias 50 on a 9-vs-10 candidate split, same-region partners
        # dominate overwhelmingly.
        assert same / total > 0.85

    def test_bias_of_one_keeps_uniform_path(self):
        overlay = complete_overlay(12)
        plain = MembershipService(overlay.copy(), 5, np.random.default_rng(9))
        biased = MembershipService(overlay.copy(), 5, np.random.default_rng(9))
        biased.set_locality(lambda n: n % 2, bias=1.0)  # ignored: bias <= 1
        assert not biased.locality_enabled
        plain.repair([0])
        biased.repair([0])
        assert sorted(plain.overlay.neighbours(0)) == sorted(
            biased.overlay.neighbours(0)
        )

    def test_unknown_regions_count_as_remote(self):
        overlay = complete_overlay(8)
        service = MembershipService(overlay, 3, np.random.default_rng(1))
        service.set_locality(lambda n: None, bias=10.0)
        assert service.repair([0]) > 0  # no crash, degree restored
        assert len(overlay.neighbours(0)) >= 3
