"""Tests for the ASCII and SVG chart helpers."""

import pytest

from repro.analysis.charts import (
    ascii_line_chart,
    svg_bar_chart,
    svg_line_chart,
)


def test_line_chart_contains_markers_and_legend():
    chart = ascii_line_chart(
        {
            "normal": [(0.0, 0.0), (10.0, 1.0)],
            "fast": [(0.0, 0.2), (10.0, 1.0)],
        },
        width=30,
        height=8,
        title="delivered ratio",
    )
    assert "delivered ratio" in chart
    assert "* normal" in chart
    assert "o fast" in chart
    assert "*" in chart and "o" in chart
    # y-axis extremes rendered
    assert "1.000" in chart and "0.000" in chart


def test_line_chart_empty_and_invalid_dimensions():
    assert ascii_line_chart({"a": []}) == "(no data)"
    with pytest.raises(ValueError):
        ascii_line_chart({"a": [(0, 1)]}, width=5)
    with pytest.raises(ValueError):
        ascii_line_chart({"a": [(0, 1)]}, height=2)


def test_line_chart_flat_series_does_not_crash():
    chart = ascii_line_chart({"flat": [(0.0, 0.5), (5.0, 0.5)]}, width=20, height=5)
    assert "flat" in chart


# --------------------------------------------------------------------------- #
# SVG builders on degenerate inputs
# --------------------------------------------------------------------------- #
def test_svg_line_chart_empty_input_renders_stub():
    for empty in ({}, {"a": []}):
        svg = svg_line_chart(empty)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "no data" in svg


def test_svg_line_chart_single_point_series():
    svg = svg_line_chart({"solo": [(1.0, 2.0)]}, title="single")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "single" in svg and "solo" in svg


def test_svg_line_chart_all_equal_values_does_not_divide_by_zero():
    svg = svg_line_chart({"flat": [(0.0, 3.0), (5.0, 3.0), (10.0, 3.0)]})
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "flat" in svg and "NaN" not in svg and "inf" not in svg


def test_svg_line_chart_equal_x_values_does_not_divide_by_zero():
    svg = svg_line_chart({"stack": [(2.0, 0.0), (2.0, 1.0)]})
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "NaN" not in svg and "inf" not in svg


def test_svg_bar_chart_empty_input_renders_stub():
    svg = svg_bar_chart([])
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "no data" in svg


def test_svg_bar_chart_single_and_zero_valued_bars():
    svg = svg_bar_chart([("only", 0.0)], title="zeros")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "only" in svg and "zeros" in svg and "NaN" not in svg


def test_svg_bar_chart_all_equal_values():
    svg = svg_bar_chart([("a", 2.5), ("b", 2.5), ("c", 2.5)])
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    for label in ("a", "b", "c"):
        assert f">{label}<" in svg or label in svg
    assert "NaN" not in svg and "inf" not in svg
