"""Tests for the clip2/DSS-style trace format."""

import pytest

from repro.overlay.trace import (
    TraceNode,
    TraceRecordError,
    parse_trace,
    parse_trace_lines,
    write_trace,
)


def _sample_nodes():
    return [
        TraceNode(node_id=0, ip="10.0.0.0", host="a", port=6346, ping_ms=30.0,
                  speed_kbps=768.0, neighbours=(1, 2)),
        TraceNode(node_id=1, ip="10.0.0.1", host="b", port=6346, ping_ms=120.5,
                  speed_kbps=56.0, neighbours=(0,)),
        TraceNode(node_id=2, ip="10.0.0.2", host="", port=6347, ping_ms=45.0,
                  speed_kbps=1500.0, neighbours=()),
    ]


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "overlay.trace"
    nodes = _sample_nodes()
    write_trace(nodes, path, header="test trace")
    parsed = parse_trace(path)
    assert parsed == nodes


def test_comments_and_blank_lines_ignored():
    lines = [
        "# a comment",
        "",
        "0|10.0.0.0|h|6346|30|768|1",
        "   ",
        "1|10.0.0.1|h|6346|40|768|0",
    ]
    nodes = parse_trace_lines(lines)
    assert [n.node_id for n in nodes] == [0, 1]
    assert nodes[0].neighbours == (1,)


def test_wrong_field_count_raises():
    with pytest.raises(TraceRecordError, match="7 '\\|'-separated fields"):
        parse_trace_lines(["0|10.0.0.0|h|6346|30|768"])


def test_malformed_numbers_raise():
    with pytest.raises(TraceRecordError):
        parse_trace_lines(["zero|10.0.0.0|h|6346|30|768|"])
    with pytest.raises(TraceRecordError):
        parse_trace_lines(["0|10.0.0.0|h|6346|thirty|768|"])


def test_negative_ping_or_speed_rejected():
    with pytest.raises(TraceRecordError):
        parse_trace_lines(["0|10.0.0.0|h|6346|-3|768|"])
    with pytest.raises(TraceRecordError):
        parse_trace_lines(["0|10.0.0.0|h|6346|3|-768|"])


def test_duplicate_node_ids_rejected():
    lines = ["0|10.0.0.0|h|6346|30|768|", "0|10.0.0.1|h|6346|30|768|"]
    with pytest.raises(TraceRecordError, match="duplicate"):
        parse_trace_lines(lines)


def test_malformed_neighbour_list_rejected():
    with pytest.raises(TraceRecordError):
        parse_trace_lines(["0|10.0.0.0|h|6346|30|768|1,x"])


def test_empty_neighbour_list_allowed():
    nodes = parse_trace_lines(["5|10.0.0.5|h|6346|30|768|"])
    assert nodes[0].neighbours == ()
