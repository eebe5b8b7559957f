"""Integration tests for the switch session (small overlays)."""

import dataclasses
import gc
import math
import weakref
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.churn.model import ChurnConfig
from repro.experiments.config import make_session_config
from repro.sim.engine import SimulationEngine
from repro.streaming.session import (
    ALGORITHM_FACTORIES,
    ENGINE_NAMES,
    RequestConservationError,
    SessionConfig,
    SwitchSession,
    due_arrivals,
)


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=4)
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=50, algorithm="unknown")
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=50, warmup="magic")
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=50, supplier_rate_estimate="psychic")
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=50, old_stream_segments=5)
    with pytest.raises(ValueError):
        SessionConfig(n_nodes=50, max_time=0.0)


def test_with_algorithm_and_factories():
    config = SessionConfig(n_nodes=50, algorithm="fast")
    other = config.with_algorithm("normal")
    assert other.algorithm == "normal"
    assert config.algorithm == "fast"
    assert set(ALGORITHM_FACTORIES) == {"fast", "normal"}
    assert config.make_algorithm().name == "fast"


def test_session_setup_builds_consistent_topology(tiny_config):
    session = SwitchSession(tiny_config)
    overlay = session.overlay
    assert len(overlay) == tiny_config.n_nodes
    assert all(overlay.degree(n) >= tiny_config.min_degree for n in overlay.node_ids)
    assert len(session.sources) == 2
    assert len(session.peers) == tiny_config.n_nodes - 2
    assert session.old_source_id != session.new_source_id
    # the old source holds its whole stream, the new one holds nothing yet
    assert len(session.sources[session.old_source_id].buffer) == tiny_config.old_stream_segments
    assert len(session.sources[session.new_source_id].buffer) == 0


def test_analytic_warmup_seeds_backlogs(tiny_config):
    session = SwitchSession(tiny_config)
    q0s = [peer.q0 for peer in session.peers.values()]
    assert all(q0 is not None and q0 >= 0 for q0 in q0s)
    assert max(q0s) > 0  # someone is behind the live edge
    for peer in session.peers.values():
        assert peer.playback_old is not None and peer.playback_old.started
        assert len(peer.buffer) > 0


def test_full_run_completes_every_peer(tiny_config):
    result = SwitchSession(tiny_config).run()
    assert result.metrics.unfinished == 0
    assert result.metrics.avg_prepare_new > 0
    assert result.metrics.avg_finish_old > 0
    assert result.metrics.avg_start_time >= result.metrics.avg_prepare_new - 1e-9
    assert result.stop_reason == "all tracked peers switched"
    assert result.n_rounds > 0
    assert 0 < result.overhead_ratio < 0.2
    assert result.switch_plan.id_begin == result.switch_plan.id_end + 1


def test_runs_are_deterministic_for_a_seed(tiny_config):
    first = SwitchSession(tiny_config).run()
    second = SwitchSession(tiny_config).run()
    assert first.metrics.avg_prepare_new == second.metrics.avg_prepare_new
    assert first.metrics.avg_finish_old == second.metrics.avg_finish_old
    assert first.overhead_ratio == second.overhead_ratio


def test_different_seeds_differ(tiny_config):
    other = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
    a = SwitchSession(tiny_config).run()
    b = SwitchSession(other).run()
    assert (
        a.metrics.avg_prepare_new != b.metrics.avg_prepare_new
        or a.metrics.avg_finish_old != b.metrics.avg_finish_old
    )


def test_round_series_recorded_and_monotone(tiny_config):
    result = SwitchSession(tiny_config).run()
    rounds = result.metrics.rounds
    assert len(rounds) >= 3
    times = [r.time for r in rounds]
    assert times == sorted(times)
    undelivered = [r.undelivered_ratio_old for r in rounds]
    delivered = [r.delivered_ratio_new for r in rounds]
    # undelivered ratio must fall to 0, delivered ratio must rise to 1
    assert undelivered[-1] == pytest.approx(0.0, abs=1e-9)
    assert delivered[-1] == pytest.approx(1.0, abs=1e-9)
    assert min(delivered) >= 0.0 and max(undelivered) <= 1.0 + 1e-9


def test_dynamic_session_with_churn_completes():
    config = make_session_config(
        40,
        seed=11,
        dynamic=True,
        max_time=90.0,
        old_stream_segments=400,
    )
    assert config.churn.enabled
    session = SwitchSession(config)
    result = session.run()
    # churn happened and the run still terminates with sensible metrics
    assert session.churn.total_leaves > 0
    assert session.churn.total_joins > 0
    assert result.metrics.n_peers > 0
    assert result.metrics.avg_prepare_new > 0
    # joiners are not tracked
    assert all(p.q0 == 0 for p in session.peers.values() if not p.tracked)


def test_simulated_warmup_reaches_steady_state():
    config = make_session_config(
        30,
        seed=5,
        warmup="simulated",
        warmup_duration=20.0,
        max_time=90.0,
        lookahead=120,
    )
    session = SwitchSession(config)
    result = session.run()
    assert result.switch_plan.id_end == int(20.0 * config.play_rate) - 1
    assert result.metrics.unfinished == 0
    assert result.metrics.avg_prepare_new > 0


def test_fair_share_estimator_still_completes(tiny_config):
    config = dataclasses.replace(tiny_config, supplier_rate_estimate="fair_share")
    result = SwitchSession(config).run()
    assert result.metrics.unfinished == 0


def test_overhead_series_is_nondecreasing_in_time(tiny_config):
    result = SwitchSession(tiny_config).run()
    times = [t for t, _ in result.overhead_series]
    assert times == sorted(times)
    assert all(ratio > 0 for _, ratio in result.overhead_series[1:])


# --------------------------------------------------------------------------- #
# lifecycle: run once, close
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_second_run_is_refused_and_finalize_repeats(tiny_config, engine):
    session = SwitchSession(dataclasses.replace(tiny_config, engine=engine), label="once")
    result = session.run()
    assert result.n_rounds == 15
    with pytest.raises(RuntimeError, match="'once'"):
        session.run()  # used to simulate a 16th period
    assert session._finalize() == result == session._finalize()
    assert session.rounds_run == 15
    session.close()  # idempotent, and wipes nothing
    assert len(session.peers) == tiny_config.n_nodes - 2
    assert session._finalize() == result


def test_closed_session_refuses_to_run(tiny_config):
    session = SwitchSession(tiny_config)
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.run()


def test_exchange_checks_request_conservation(tiny_config):
    """Every request of a period ends delivered, delayed or failed: an
    exchange whose books do not balance names the session and the period."""
    session = SwitchSession(tiny_config, label="ch7")
    decide = session._decider.decide

    def decide_with_phantom_delivery(_, state):
        decide(session, state)
        if state.index == 3:
            peer = session.peers[state.order[0]]
            state.deliveries.append((peer, 0, session.old_source_id))

    session._decider.decide = decide_with_phantom_delivery
    with pytest.raises(
        RequestConservationError, match=r"session 'ch7', period 3: \d+ requests but \d+ delivered"
    ):
        session.run()
    assert session.rounds_run == 3


@pytest.mark.parametrize("topology", ["", "transcontinental"], ids=["ideal", "wan"])
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_finished_session_is_freed_without_a_collection(tiny_config, engine, topology):
    """A finished, closed session is in no reference cycle: with the cyclic
    collector off it is gone the moment the last reference goes."""
    config = dataclasses.replace(tiny_config, engine=engine, topology=topology)
    gc.collect()
    gc.disable()
    try:
        session = SwitchSession(config)
        session.run()
        alive = weakref.ref(session)
        del session
        assert alive() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------- #
# the arrival calendar against the event queue it stands in for
# --------------------------------------------------------------------------- #
@st.composite
def _delayed_traffic(draw):
    """``(tau, start, sends)``: per round, the delays of the segments it sends."""
    tau = draw(st.sampled_from([1.0, 0.5, 0.3, 0.1]))
    start = draw(st.sampled_from([0.0, -3 * tau]))  # a simulated warm-up starts below 0
    delay = st.one_of(
        st.sampled_from([tau, 2 * tau, 3 * tau]),  # lands on a later round's timestamp
        st.floats(min_value=tau / 1024, max_value=tau, exclude_max=True),
        st.floats(min_value=2 * tau, max_value=5 * tau, exclude_min=True),
        st.floats(min_value=1e-9, max_value=4 * tau),
    )
    sends = draw(st.lists(st.lists(delay, max_size=5), min_size=1, max_size=7))
    return tau, start, sends


def _queue_reference(tau, start, sends):
    """One engine event per segment, scheduled from inside a periodic round
    the way the exchange phase used to: ``(segment, arrival, period stamp)``
    in execution order, the clock the engine stopped at, what is still queued."""
    engine = SimulationEngine(start_time=start)
    landed, rounds_run = [], 0

    def deliver(segment):
        landed.append((segment, engine.now, rounds_run))

    def round_(now):
        nonlocal rounds_run
        rounds_run += 1
        for order, delay in enumerate(sends[rounds_run - 1]):
            engine.schedule_in(delay, partial(deliver, (rounds_run, order)))
        if rounds_run == len(sends):
            process.stop()  # no further round; the clock runs on

    process = engine.schedule_periodic(tau, round_)
    while rounds_run < len(sends):
        engine.step()
    engine.run_until(engine.now + tau)  # inclusive
    return landed, engine.now, len(engine.queue)


@settings(max_examples=300, deadline=None)
@given(traffic=_delayed_traffic())
@example(traffic=(1.0, 0.0, [[1.0, 2.0, 0.5], [1.0, 2.0], [1.0], []]))
def test_calendar_drains_in_the_event_queues_order(traffic):
    """Draining the calendar at every round (and once more at the end, with
    an infinite index, as the end of a simulated warm-up does) applies the
    same segments, in the same order, with the same arrival times and period
    stamps -- i.e. before the same round -- as the event queue does, ties on
    a round's timestamp included."""
    tau, start, sends = traffic
    expected, stopped_at, still_queued = _queue_reference(tau, start, sends)
    calendar, landed, now = [], [], start
    for index, delays in enumerate(sends, start=1):
        now = now + tau  # PeriodicProcess: the next round is at ``now + period``
        for arrival, sent, order, *_ in due_arrivals(calendar, now, index):
            landed.append(((sent, order), arrival, index - 1))
        for order, delay in enumerate(delays):
            calendar.append((now + delay, index, order, 0, 0, 0, delay))
    for arrival, sent, order, *_ in due_arrivals(calendar, stopped_at, math.inf):
        landed.append(((sent, order), arrival, len(sends)))
    assert landed == expected
    assert len(calendar) == still_queued
