"""Tests for the overlay graph structure."""

import pytest

from repro.overlay.topology import NodeInfo, Overlay, build_overlay_from_trace
from repro.overlay.trace import TraceNode


def _triangle() -> Overlay:
    overlay = Overlay()
    for i in range(3):
        overlay.add_node(NodeInfo(node_id=i, ping_ms=100.0 * (i + 1)))
    overlay.add_edge(0, 1)
    overlay.add_edge(1, 2)
    overlay.add_edge(2, 0)
    return overlay


def test_add_and_query_nodes_edges():
    overlay = _triangle()
    assert len(overlay) == 3
    assert overlay.edge_count() == 3
    assert overlay.degree(0) == 2
    assert overlay.neighbours(1) == [0, 2]
    assert overlay.has_edge(0, 2)
    assert not overlay.has_edge(0, 3)


def test_duplicate_node_rejected():
    overlay = _triangle()
    with pytest.raises(ValueError):
        overlay.add_node(NodeInfo(node_id=0))


def test_add_edge_unknown_endpoint_raises():
    overlay = _triangle()
    with pytest.raises(KeyError):
        overlay.add_edge(0, 99)


def test_self_loops_and_duplicates_are_ignored():
    overlay = _triangle()
    assert overlay.add_edge(0, 0) is False
    assert overlay.add_edge(0, 1) is False
    assert overlay.edge_count() == 3


def test_remove_node_removes_incident_edges():
    overlay = _triangle()
    overlay.remove_node(1)
    assert len(overlay) == 2
    assert overlay.edge_count() == 1
    assert 1 not in overlay
    with pytest.raises(KeyError):
        overlay.remove_node(1)


def test_edge_latency_from_ping_times():
    overlay = _triangle()
    # ping 100 ms and 200 ms -> (100 + 200)/2 = 150 ms = 0.15 s
    assert overlay.edge_latency(0, 1) == pytest.approx(0.15)


def test_hop_distances_bfs():
    overlay = Overlay()
    for i in range(5):
        overlay.add_node(NodeInfo(node_id=i))
    overlay.add_edge(0, 1)
    overlay.add_edge(1, 2)
    overlay.add_edge(2, 3)
    # node 4 is isolated
    distances = overlay.hop_distances_from(0)
    assert distances == {0: 0, 1: 1, 2: 2, 3: 3}
    assert not overlay.is_connected()


def test_average_degree_and_copy():
    overlay = _triangle()
    assert overlay.average_degree() == pytest.approx(2.0)
    clone = overlay.copy()
    clone.remove_node(0)
    assert len(overlay) == 3  # original untouched
    assert len(clone) == 2


def test_build_overlay_from_trace_ignores_dangling_neighbours():
    records = [
        TraceNode(node_id=0, ip="10.0.0.0", neighbours=(1, 99)),
        TraceNode(node_id=1, ip="10.0.0.1", neighbours=(0,)),
    ]
    overlay = build_overlay_from_trace(records)
    assert len(overlay) == 2
    assert overlay.edge_count() == 1
    assert overlay.has_edge(0, 1)


def test_empty_overlay_properties():
    overlay = Overlay()
    assert len(overlay) == 0
    assert overlay.average_degree() == 0.0
    assert overlay.is_connected()
