"""Tests for result comparison and table formatting."""

import pytest

from repro.metrics.collectors import SwitchMetrics
from repro.metrics.report import (
    compare_metrics,
    format_table,
    reduction_ratio,
)
from repro.records import to_json


def _metrics(algorithm: str, prepare: float, finish: float, overhead: float) -> SwitchMetrics:
    return SwitchMetrics(
        algorithm=algorithm,
        n_peers=100,
        avg_finish_old=finish,
        avg_prepare_new=prepare,
        avg_switch_time=prepare,
        avg_start_time=prepare,
        last_finish_old=finish + 2,
        last_prepare_new=prepare + 3,
        last_start_time=prepare + 3,
        unfinished=0,
        horizon=120.0,
        overhead_ratio=overhead,
    )


def test_reduction_ratio_matches_paper_definition():
    assert reduction_ratio(20.0, 15.0) == pytest.approx(0.25)
    assert reduction_ratio(0.0, 15.0) == 0.0
    assert reduction_ratio(10.0, 12.0) == pytest.approx(-0.2)


def test_compare_metrics_builds_row():
    normal = _metrics("normal", prepare=20.0, finish=10.0, overhead=0.016)
    fast = _metrics("fast", prepare=15.0, finish=12.0, overhead=0.014)
    row = compare_metrics("1000", normal, fast)
    assert row.label == "1000"
    assert row.switch_time_reduction == pytest.approx(0.25)
    assert row.normal_finish_old == 10.0
    assert row.fast_prepare_new == 15.0
    as_dict = to_json(row)
    assert as_dict["n_peers"] == 100
    assert as_dict["fast_overhead"] == 0.014


def test_format_table_renders_all_rows_and_floats():
    rows = [
        {"n_nodes": 100, "reduction": 0.25},
        {"n_nodes": 1000, "reduction": 0.3123456},
    ]
    text = format_table(rows)
    assert "n_nodes" in text and "reduction" in text
    assert "0.250" in text and "0.312" in text
    assert len(text.splitlines()) == 4  # header + separator + 2 rows


def test_format_table_empty_and_column_selection():
    assert format_table([]) == "(no data)"
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]
