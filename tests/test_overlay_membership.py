"""Tests for the gossip membership service."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.membership import MembershipService, _choice_without_replacement
from repro.overlay.topology import NodeInfo, Overlay


def _overlay(n: int = 12, degree_edges=None) -> Overlay:
    overlay = Overlay()
    for i in range(n):
        overlay.add_node(NodeInfo(node_id=i))
    edges = degree_edges or [(i, (i + 1) % n) for i in range(n)]
    for a, b in edges:
        overlay.add_edge(a, b)
    return overlay


def _service(overlay: Overlay, min_degree: int = 3, protected=()):
    return MembershipService(
        overlay, min_degree, np.random.default_rng(5), protected=protected
    )


def test_join_connects_new_node_to_min_degree_partners():
    overlay = _overlay()
    service = _service(overlay, min_degree=3)
    node_id = service.join()
    assert node_id in overlay
    assert overlay.degree(node_id) == 3
    assert service.joins == 1


def test_join_with_explicit_info_advances_id_counter():
    overlay = _overlay()
    service = _service(overlay)
    node_id = service.join(NodeInfo(node_id=100, ping_ms=10.0))
    assert node_id == 100
    assert service.allocate_node_id() == 101


def test_leave_removes_node_and_reports_former_neighbours():
    overlay = _overlay()
    service = _service(overlay)
    former = service.leave(3)
    assert 3 not in overlay
    assert set(former) == {2, 4}
    assert service.leaves == 1


def test_protected_nodes_cannot_leave():
    overlay = _overlay()
    service = _service(overlay, protected={0})
    with pytest.raises(ValueError):
        service.leave(0)


def test_repair_restores_min_degree_after_leave():
    overlay = _overlay()
    service = _service(overlay, min_degree=2)
    former = service.leave(5)
    service.repair(former)
    for node in former:
        assert overlay.degree(node) >= 2


def test_repair_all_nodes_by_default():
    overlay = _overlay()
    service = _service(overlay, min_degree=4)
    added = service.repair()
    assert added > 0
    assert all(overlay.degree(n) >= 4 for n in overlay.node_ids)


def test_min_degree_must_be_positive():
    overlay = _overlay()
    with pytest.raises(ValueError):
        MembershipService(overlay, 0, np.random.default_rng(0))


def test_join_on_tiny_overlay_connects_to_everyone():
    overlay = Overlay()
    overlay.add_node(NodeInfo(node_id=0))
    service = MembershipService(overlay, 5, np.random.default_rng(0))
    node_id = service.join()
    assert overlay.degree(node_id) == 1  # only one possible partner


class _FirstPicks:
    """A generator stand-in whose uniform partner draw takes the first
    ``size`` candidates, in candidate order."""

    def choice(self, n, size, replace):
        assert not replace and size <= n
        return np.arange(size)


@settings(max_examples=200, deadline=None)
@given(
    node_ids=st.sets(st.integers(0, 40), min_size=1, max_size=25),
    edges=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80),
    leavers=st.sets(st.integers(0, 40), max_size=6),
    joiners=st.sets(st.integers(0, 60), max_size=4),
)
def test_partner_candidates_are_the_non_neighbours_in_id_order(node_ids, edges, leavers, joiners):
    """The candidates a draw indexes into -- the alive-id array minus the
    drawing node and its neighbours -- are every other alive node it has no
    edge to, in id order, and the array follows joins and leaves."""
    overlay = Overlay()
    for node_id in node_ids:
        overlay.add_node(NodeInfo(node_id=node_id))
    for a, b in edges:
        if a != b and a in node_ids and b in node_ids:
            overlay.add_edge(a, b)
    service = MembershipService(overlay, 3, _FirstPicks())
    for node_id in sorted(leavers & node_ids):
        service.leave(node_id)
    for node_id in sorted(joiners - node_ids):
        service.join(NodeInfo(node_id=node_id))
    partners = []
    add_edge = overlay.add_edge
    overlay.add_edge = lambda a, b: partners.append(b) or add_edge(a, b)
    for node_id in overlay.node_ids:
        expected = [
            other
            for other in overlay.node_ids
            if other != node_id and not overlay.has_edge(node_id, other)
        ]
        partners.clear()
        assert service._connect_to_random_partners(node_id, len(overlay)) == len(expected)
        assert partners == expected
        for partner in partners:  # the next node sees the overlay as drawn
            overlay.remove_edge(node_id, partner)


def test_weighted_partner_draw_replicates_numpy_choice():
    """The weighted draw is NumPy's ``Generator.choice`` without replacement,
    pick for pick, and leaves the generator where NumPy leaves it: 100 000
    cases, population 1..300, every size 1..n (mostly the small ones the
    overlay asks for), weights in {1, bias}."""
    cases = np.random.default_rng(20_26)
    n_cases = 100_000
    sizes = cases.integers(1, 301, size=n_cases)
    wide = cases.random(n_cases) < 0.05
    picks = np.where(
        wide,
        (cases.random(n_cases) * sizes).astype(int) + 1,
        np.minimum(sizes, cases.integers(1, 9, size=n_cases)),
    )
    biases = cases.choice([1.5, 2.0, 4.0, 50.0], size=n_cases)
    shares = cases.random(n_cases)
    pattern = cases.random(300)
    numpy_rng, replica_rng = np.random.default_rng(3), np.random.default_rng(3)
    for n, k, bias, share in zip(sizes.tolist(), picks.tolist(), biases.tolist(), shares.tolist()):
        weights = np.where(pattern[:n] < share, bias, 1.0)
        p = weights / weights.sum()
        expected = numpy_rng.choice(n, size=k, replace=False, p=p).tolist()
        assert _choice_without_replacement(replica_rng, p, k) == expected, (n, k, bias)
        assert replica_rng.random() == numpy_rng.random(), (n, k, bias)
    assert picks.max() > 250 and (picks == sizes).sum() > 100


def test_repairs_look_each_region_up_once_per_node():
    """Partner draws do not scan the population: 300 repairs on a 3 000-node
    overlay with locality on make at most one region lookup per node plus
    one per draw (the drawing node's own region)."""
    n = 3_000
    overlay = Overlay()
    for node_id in range(n):
        overlay.add_node(NodeInfo(node_id=node_id))
    for node_id in range(n):
        for step in (1, 2, 3):
            overlay.add_edge(node_id, (node_id + step) % n)
    service = MembershipService(overlay, 6, np.random.default_rng(11))
    lookups = []
    service.set_locality(lambda node_id: lookups.append(node_id) or node_id % 4, bias=4.0)
    draws = []
    connect = service._connect_to_random_partners
    service._connect_to_random_partners = lambda *args: draws.append(args) or connect(*args)
    order = np.random.default_rng(12).permutation(n).tolist()
    for leaver in order[:300]:
        service.repair(service.leave(leaver))
        service.join()
    assert service.leaves == 300 and len(draws) >= 600
    assert len(lookups) <= n + service.joins + len(draws)


class TestSubCriticalPopulations:
    """Regression: repair degrades gracefully below ``min_degree + 1`` alive."""

    def test_effective_min_degree_tracks_the_population(self):
        overlay = _overlay(n=4)
        service = _service(overlay, min_degree=5)
        assert service.effective_min_degree == 3
        service.leave(3)
        assert service.effective_min_degree == 2

    def test_repair_builds_partial_neighbour_sets(self):
        overlay = _overlay(n=4)  # 4-cycle
        service = _service(overlay, min_degree=5)
        added = service.repair()
        # the best a 4-node overlay can do: the complete graph
        assert added == 2
        assert all(overlay.degree(n) == 3 for n in overlay.node_ids)

    def test_saturated_overlay_repair_is_a_noop(self):
        overlay = _overlay(n=3, degree_edges=[(0, 1), (1, 2), (0, 2)])
        service = _service(overlay, min_degree=5)
        repairs_before = service.repairs
        for _ in range(5):  # repeated rounds must not retry or raise
            assert service.repair() == 0
        assert service.repairs == repairs_before

    def test_repair_never_raises_while_shrinking_to_nothing(self):
        overlay = _overlay(n=6, degree_edges=[(i, (i + 1) % 6) for i in range(6)])
        service = _service(overlay, min_degree=5)
        for node in range(6):
            former = service.leave(node)
            service.repair([n for n in former if n in overlay])
        assert len(overlay) == 0
        assert service.repair() == 0

    def test_join_into_subcritical_overlay_connects_to_everyone(self):
        overlay = _overlay(n=3)
        service = _service(overlay, min_degree=5)
        node_id = service.join()
        assert sorted(overlay.neighbours(node_id)) == [0, 1, 2]
