"""Session-level tests for per-period workload directives.

Covers the workload-engine hooks in :class:`SwitchSession`: churn bursts
over a static baseline, correlated failures, bandwidth-regime scaling,
heterogeneous peer classes and -- crucially -- the playback
continuity/stall accounting those events disturb.
"""

import pytest

from repro.streaming.bandwidth import PeerClass
from repro.streaming.session import (
    PeriodDirective,
    SessionConfig,
    SwitchSession,
)

TEST_CLASSES = (
    PeerClass("slow", 0.5, 10.0, 14.0, 11.0, 10.0, 14.0, 11.0),
    PeerClass("quick", 0.5, 18.0, 33.0, 24.0, 18.0, 33.0, 24.0),
)


def _config(**kwargs):
    defaults = dict(
        n_nodes=50,
        seed=11,
        max_time=30.0,
        old_stream_segments=400,
        lookahead=120,
        run_full_horizon=True,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def _run(config, directives=None):
    return SwitchSession(config, directives=directives).run()


@pytest.fixture(scope="module")
def baseline():
    """The no-directive reference run (module-scoped: simulated once)."""
    return _run(_config())


def test_directive_validation():
    with pytest.raises(ValueError):
        PeriodDirective(leave_fraction=1.5)
    with pytest.raises(ValueError):
        PeriodDirective(bandwidth_scale=0.0)
    with pytest.raises(ValueError):
        PeriodDirective(fail_fraction=2.0)


def test_leave_burst_removes_tracked_peers_from_static_baseline(baseline):
    burst = _run(_config(), directives={5: PeriodDirective(leave_fraction=0.3)})
    assert baseline.config.churn.enabled is False
    # ~30% of the 48 peers left in one period; leavers stay out.
    assert burst.metrics.rounds[-1].tracked_peers <= baseline.metrics.rounds[-1].tracked_peers - 10


def test_join_burst_grows_the_population(baseline):
    burst = _run(
        _config(), directives={5: PeriodDirective(join_fraction=0.4)}
    )
    assert burst.n_rounds == baseline.n_rounds
    # joiners are untracked, so tracked metrics cover the original peers
    assert burst.metrics.n_peers == baseline.metrics.n_peers


def test_correlated_failure_removes_a_cluster(baseline):
    failed = _run(_config(), directives={4: PeriodDirective(fail_fraction=0.25)})
    lost = baseline.metrics.rounds[-1].tracked_peers - failed.metrics.rounds[-1].tracked_peers
    assert lost >= 10  # floor(0.25 * 48 + 0.5) = 12, minus any later rejoins


def test_bandwidth_scale_slows_the_switch(baseline):
    throttled_directives = {
        period: PeriodDirective(bandwidth_scale=0.35) for period in range(1, 31)
    }
    throttled = _run(_config(), directives=throttled_directives)
    assert throttled.metrics.avg_switch_time > baseline.metrics.avg_switch_time
    assert throttled.metrics.rounds[-1].cumulative_stalls >= \
        baseline.metrics.rounds[-1].cumulative_stalls


def test_cumulative_stalls_are_monotone_under_churn_burst():
    result = _run(
        _config(),
        directives={
            6: PeriodDirective(leave_fraction=0.25, join_fraction=0.25),
            7: PeriodDirective(leave_fraction=0.25),
        },
    )
    series = [sample.cumulative_stalls for sample in result.metrics.rounds]
    assert all(b >= a for a, b in zip(series, series[1:])), series
    # outcome-level stall counts agree with the final cumulative sample:
    # departed tracked peers keep their stall history.
    outcome_stalls = sum(o.stalls + o.stalls_new for o in result.metrics.outcomes)
    departed_unfinished = result.metrics.rounds[-1].cumulative_stalls - outcome_stalls
    assert departed_unfinished >= 0  # outcomes exclude peers that left mid-switch


def test_stall_periods_surface_in_peer_outcomes_under_pressure():
    result = _run(
        _config(),
        directives={p: PeriodDirective(bandwidth_scale=0.3) for p in range(1, 31)},
    )
    assert result.metrics.rounds[-1].cumulative_stalls > 0
    assert any(o.stalls + o.stalls_new > 0 for o in result.metrics.outcomes)


def test_run_full_horizon_keeps_running_after_all_switched(baseline):
    early = _run(_config(run_full_horizon=False))
    full = baseline
    assert early.stop_reason == "all tracked peers switched"
    assert full.stop_reason == "time horizon reached"
    assert full.n_rounds > early.n_rounds
    # identical switch metrics either way (the extra rounds are post-switch)
    assert full.metrics.avg_switch_time == early.metrics.avg_switch_time


def test_peer_classes_label_outcomes_and_rates():
    result = _run(_config(peer_classes=TEST_CLASSES))
    labels = {o.peer_class for o in result.metrics.outcomes}
    assert labels == {"slow", "quick"}


def test_directives_keep_paired_runs_paired():
    directives = {5: PeriodDirective(leave_fraction=0.2, join_fraction=0.2)}
    fast = _run(_config(algorithm="fast"), directives)
    normal = _run(_config(algorithm="normal"), directives)
    # same churn draws: both runs lose the same tracked peers
    assert {o.node_id for o in fast.metrics.outcomes} == \
        {o.node_id for o in normal.metrics.outcomes}


def test_duplicate_class_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        _config(peer_classes=(TEST_CLASSES[0], TEST_CLASSES[0]))


def test_count_directive_validation_and_neutrality():
    with pytest.raises(ValueError):
        PeriodDirective(leave_count=-1)
    with pytest.raises(ValueError):
        PeriodDirective(join_count=-2)
    assert PeriodDirective().is_neutral
    assert not PeriodDirective(leave_count=0).is_neutral
    assert not PeriodDirective(join_count=3).is_neutral


def test_count_directives_execute_exact_membership_changes(baseline):
    session = SwitchSession(
        _config(),
        directives={
            4: PeriodDirective(leave_count=5),
            6: PeriodDirective(join_count=3),
        },
    )
    scripted = session.run()
    base_final = baseline.metrics.rounds[-1].tracked_peers
    # exactly five tracked peers left and none of the three joiners count
    assert scripted.metrics.rounds[-1].tracked_peers == base_final - 5
    assert session.membership.joins == 3
    assert session.membership.leaves == 5
