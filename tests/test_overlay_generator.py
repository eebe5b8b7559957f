"""Tests for the synthetic Gnutella-like trace generator."""

import pytest

from repro.overlay.generator import (
    PAPER_TRACE_SIZES,
    SyntheticTraceGenerator,
    TraceSpec,
    generate_trace,
)
from repro.overlay.topology import build_overlay_from_trace


def test_generate_trace_has_requested_size_and_unique_ids():
    nodes = generate_trace(200, seed=1)
    assert len(nodes) == 200
    assert len({n.node_id for n in nodes}) == 200
    assert len({n.ip for n in nodes}) == 200


def test_generation_is_deterministic_per_seed():
    a = generate_trace(100, seed=5)
    b = generate_trace(100, seed=5)
    c = generate_trace(100, seed=6)
    assert a == b
    assert a != c


def test_trace_overlay_is_connected_and_sparse():
    nodes = generate_trace(300, seed=2, mean_degree=2.0)
    overlay = build_overlay_from_trace(nodes)
    assert overlay.is_connected()
    # sparse, Gnutella-crawl-like: well below the streaming degree M=5
    assert overlay.average_degree() < 5.0
    assert overlay.average_degree() >= 1.5


def test_ping_times_within_clip_range():
    nodes = generate_trace(500, seed=3)
    pings = [n.ping_ms for n in nodes]
    assert min(pings) >= 5.0
    assert max(pings) <= 2000.0


def test_speeds_come_from_known_classes():
    nodes = generate_trace(300, seed=4)
    speeds = {n.speed_kbps for n in nodes}
    assert speeds <= {56.0, 128.0, 768.0, 1500.0, 10000.0, 45000.0}
    # the mix should not be degenerate
    assert len(speeds) >= 3


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(n_nodes=1)
    with pytest.raises(ValueError):
        TraceSpec(n_nodes=10, hub_fraction=1.5)
    with pytest.raises(ValueError):
        TraceSpec(n_nodes=10, mean_degree=0.5)
    with pytest.raises(ValueError):
        TraceSpec(n_nodes=10, ping_median_ms=0.0)


def test_generator_respects_mean_degree_knob():
    sparse = build_overlay_from_trace(generate_trace(300, seed=7, mean_degree=1.5))
    denser = build_overlay_from_trace(generate_trace(300, seed=7, mean_degree=3.0))
    assert denser.average_degree() > sparse.average_degree()


def test_paper_trace_sizes_match_evaluation():
    assert PAPER_TRACE_SIZES == (100, 500, 1000, 2000, 4000, 8000)


def test_generator_class_reuse_is_stable():
    spec = TraceSpec(n_nodes=60, seed=9)
    first = SyntheticTraceGenerator(spec).generate()
    second = SyntheticTraceGenerator(spec).generate()
    assert first == second
