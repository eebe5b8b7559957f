"""Tests for the named example scenarios (wrappers over workload specs)."""

from repro.experiments.scenarios import SCENARIOS
from repro.workloads.library import WORKLOADS


def test_three_scenarios_are_defined():
    assert {"video-conference", "distance-education", "flash-crowd"} <= set(SCENARIOS)
    for scenario in SCENARIOS.values():
        assert scenario.description
        assert scenario.n_nodes >= 100
        assert scenario.workload in WORKLOADS


def test_scenarios_resolve_to_workload_specs():
    for scenario in SCENARIOS.values():
        spec = scenario.spec()
        assert spec.n_nodes == scenario.n_nodes
        assert spec.n_switches == scenario.n_switches >= 1


def test_video_conference_is_static_multi_switch():
    scenario = SCENARIOS["video-conference"]
    spec = scenario.spec()
    assert not scenario.dynamic
    assert spec.n_switches >= 3  # repeated speaker changes
    config = scenario.config(algorithm="normal", seed=9)
    assert config.n_nodes == scenario.n_nodes == 300
    assert config.algorithm == "normal"
    assert config.seed == 9
    assert not config.churn.enabled


def test_distance_education_is_dynamic():
    scenario = SCENARIOS["distance-education"]
    assert scenario.dynamic
    config = scenario.config()
    assert config.churn.enabled
    assert config.churn.leave_fraction == 0.05
    assert config.n_nodes == 800


def test_flash_crowd_overrides_bandwidth_and_quota():
    config = SCENARIOS["flash-crowd"].config()
    assert config.inbound_mean == 12.0
    assert config.startup_quota_new == 80
    assert config.peer_classes == ()  # tight homogeneous bandwidth


def test_scenario_configs_run_full_horizon_for_phase_metrics():
    config = SCENARIOS["flash-crowd"].config()
    assert config.run_full_horizon
    assert config.record_rounds
