"""Tests for experiment configuration helpers."""

import pytest

from repro.churn.model import ChurnConfig
from repro.experiments.config import (
    BENCH_SWEEP_SIZES,
    PAPER_SWEEP_SIZES,
    make_session_config,
    ratio_track_size,
    sweep_sizes,
)
from repro.streaming.config import SessionConfig


def test_paper_sweep_sizes_match_the_evaluation_section():
    assert PAPER_SWEEP_SIZES == (100, 500, 1000, 2000, 4000, 8000)
    assert all(size < 1000 for size in BENCH_SWEEP_SIZES)


def test_defaults_quote_paper_parameters():
    """Section 5.1's parameters are SessionConfig's defaults, and the
    experiment helper takes them from there unchanged."""
    defaults = SessionConfig()
    assert defaults.min_degree == 5
    assert defaults.play_rate == 10.0
    assert defaults.buffer_capacity == 600
    assert defaults.tau == 1.0
    assert defaults.startup_quota_old == 10
    assert defaults.startup_quota_new == 50
    for side in ("inbound", "outbound"):
        rates = [getattr(defaults, f"{side}_{bound}") for bound in ("low", "high", "mean")]
        assert rates == [10.0, 33.0, 15.0]
    assert ChurnConfig.paper_dynamic().leave_fraction == 0.05
    assert ChurnConfig.paper_dynamic().join_fraction == 0.05
    assert make_session_config(200) == defaults


def test_make_session_config_static_and_dynamic():
    static = make_session_config(200, seed=3)
    assert static.n_nodes == 200
    assert static.seed == 3
    assert not static.churn.enabled
    dynamic = make_session_config(200, dynamic=True)
    assert dynamic.churn == ChurnConfig.paper_dynamic()
    # an explicit churn override wins over the environment switch
    assert make_session_config(200, dynamic=True, churn=ChurnConfig.disabled()).churn == (
        ChurnConfig.disabled())


def test_make_session_config_overrides_and_algorithm():
    config = make_session_config(150, algorithm="normal", max_time=42.0, lookahead=99)
    assert config.algorithm == "normal"
    assert config.max_time == 42.0
    assert config.lookahead == 99


def test_scale_helpers_respect_environment():
    # the explicit argument is the one way to ask for the paper's scale
    assert sweep_sizes() == BENCH_SWEEP_SIZES
    assert ratio_track_size() < 1000

    assert sweep_sizes(paper_scale=True) == PAPER_SWEEP_SIZES
    assert ratio_track_size(paper_scale=True) == 1000
    assert sweep_sizes(paper_scale=False) == BENCH_SWEEP_SIZES
    assert ratio_track_size(paper_scale=False) < 1000
