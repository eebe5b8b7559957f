"""Tests for the figure generators (tiny overlays; shapes, not magnitudes)."""

import pytest

from repro.figures import FIGURES, figure2, generate_figure, render_figure
from repro.experiments.sweeps import clear_sweep_cache


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_sweep_cache()
    yield
    clear_sweep_cache()


TINY_SIZES = [30, 40]


def test_figure2_reproduces_ordering_difference():
    result = figure2()
    assert result.figure_id == "2"
    rows = {row["algorithm"]: row for row in result.rows}
    assert rows["normal"]["old_requested"] == 5
    assert rows["normal"]["new_requested"] == 2
    # the fast algorithm interleaves: it requests fewer old and more new
    assert rows["fast"]["old_requested"] < 5
    assert rows["fast"]["new_requested"] > 2
    assert rows["normal"]["order"].startswith("S1#")
    assert result.to_text().startswith("Figure 2")


def test_figure5_ratio_track_series_shapes():
    result = render_figure("fig5-ratio-static", n_nodes=36, seed=2, max_time=70.0)
    assert result.figure_id == "5"
    assert set(result.series) == {
        "normal_undelivered_ratio_S1",
        "fast_undelivered_ratio_S1",
        "normal_delivered_ratio_S2",
        "fast_delivered_ratio_S2",
    }
    for name, series in result.series.items():
        values = [v for _, v in series]
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values)
        if "undelivered" in name:
            assert values[-1] == pytest.approx(0.0, abs=1e-9)
        else:
            assert values[-1] == pytest.approx(1.0, abs=1e-9)
    assert result.rows and "time" in result.rows[0]
    assert result.meta["n_nodes"] == 36


def test_figure7_rows_contain_reduction_per_size():
    result = render_figure("fig7-switch-static", sizes=TINY_SIZES, seed=1)
    assert [row["n_nodes"] for row in result.rows] == TINY_SIZES
    for row in result.rows:
        assert row["normal_switch_time"] > 0
        assert row["fast_switch_time"] > 0
        assert -1.0 <= row["reduction_ratio"] <= 1.0
    assert set(result.series) == {"normal_switch_time", "fast_switch_time", "reduction_ratio"}


def test_figure8_overhead_in_plausible_band():
    result = render_figure("fig8-overhead-static", sizes=TINY_SIZES, seed=1)
    for row in result.rows:
        assert 0.0 < row["fast_overhead"] < 0.2
        assert 0.0 < row["normal_overhead"] < 0.2


def test_sweep_figures_share_cached_simulations():
    # figure6/7/8 on the same sizes should reuse the same sweep: the second
    # call must not redo the (already slow) simulations.  We check object
    # identity of the underlying cached sweep indirectly via equal rows.
    first = generate_figure(7, sizes=TINY_SIZES, seed=1)
    second = generate_figure(8, sizes=TINY_SIZES, seed=1)
    assert [r["n_nodes"] for r in first.rows] == [r["n_nodes"] for r in second.rows]


def test_generate_figure_dispatcher_and_unknown_figure():
    numbers = {spec.figure_id for spec in FIGURES.values() if spec.figure_id.isdigit()}
    assert numbers == {"2", "5", "6", "7", "8", "9", "10", "11", "12"}
    result = generate_figure(2)
    assert result.figure_id == "2"
    with pytest.raises(KeyError):
        generate_figure(99)
