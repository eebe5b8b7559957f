"""Tests for the multi-channel universe: spec, planning, execution, runner."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.channels.runner import (
    rep_from_dict,
    rep_to_dict,
    run_universe,
    universe_fingerprint,
)
from repro.channels.universe import (
    ChannelOutcome,
    UniverseSpec,
    plan_universe,
    run_channel_unit,
    run_universe_rep,
)
from repro.experiments.store import MissingResultError, ResultStore
from repro.sim.rng import RandomStreams
from repro.streaming.session import SwitchSession

#: A deliberately tiny universe so the suite stays fast.
TINY = UniverseSpec(
    name="tiny-test",
    description="unit-test universe",
    n_channels=4,
    n_viewers=48,
    zipf_exponent=1.0,
    min_audience=8,
    surfer_fraction=0.4,
    surfer_zap_rate=0.15,
    loyal_zap_rate=0.01,
    duration=16.0,
)


class TestUniverseSpec:
    def test_dict_round_trip(self):
        spec = TINY
        assert UniverseSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_with_overrides(self):
        spec = UniverseSpec(
            name="o", n_channels=3, n_viewers=30, duration=10.0,
            session_overrides=(("min_degree", 4), ("play_rate", 8.0)),
        )
        assert spec.min_degree == 4
        assert UniverseSpec.from_dict(spec.to_dict()) == spec

    def test_reserved_overrides_rejected(self):
        for key in ("seed", "n_nodes", "max_time", "churn", "warmup", "tau"):
            with pytest.raises(ValueError):
                UniverseSpec(name="bad", session_overrides=((key, 1),))

    def test_non_primitive_override_rejected(self):
        with pytest.raises(ValueError):
            UniverseSpec(name="bad", session_overrides=(("lag_per_hop", [1, 2]),))

    def test_population_must_cover_the_lineup(self):
        with pytest.raises(ValueError):
            UniverseSpec(name="bad", n_channels=10, n_viewers=40)

    def test_min_audience_must_support_the_mesh(self):
        with pytest.raises(ValueError):
            UniverseSpec(name="bad", min_audience=3)

    def test_fractions_validated(self):
        for attr in ("surfer_fraction", "surfer_zap_rate", "loyal_zap_rate"):
            with pytest.raises(ValueError):
                UniverseSpec(name="bad", **{attr: 1.2})

    def test_horizon_rounds_to_whole_periods(self):
        spec = UniverseSpec(name="h", n_channels=2, n_viewers=20, duration=10.4)
        assert spec.n_periods == 10
        assert spec.horizon == 10.0

    def test_scaled_to(self):
        spec = TINY.scaled_to(n_channels=3, n_viewers=60)
        assert spec.n_channels == 3 and spec.n_viewers == 60
        assert spec.name == TINY.name


class TestPlanning:
    def test_plan_is_deterministic(self):
        a = plan_universe(TINY, 3)
        b = plan_universe(TINY, 3)
        assert a.lineup == b.lineup
        assert a.channel_seeds == b.channel_seeds
        assert a.zap_plan == b.zap_plan

    def test_channel_seeds_are_distinct(self):
        plan = plan_universe(TINY, 0)
        assert len(set(plan.channel_seeds)) == TINY.n_channels

    def test_different_seeds_make_different_plans(self):
        assert plan_universe(TINY, 0).zap_plan != plan_universe(TINY, 1).zap_plan

    def test_channel_event_streams_are_uncorrelated(self):
        # satellite guarantee: per-channel RNG families spawned via numpy
        # seed sequences give uncorrelated draws between channels.
        plan = plan_universe(TINY, 0)
        draws = [
            RandomStreams(seed).get("round-order").random(4000)
            for seed in plan.channel_seeds[:2]
        ]
        corr = float(np.corrcoef(draws[0], draws[1])[0, 1])
        assert abs(corr) < 0.05
        assert not np.array_equal(draws[0], draws[1])


class TestExecution:
    def test_serial_rep_matches_isolated_channels(self):
        rep = run_universe_rep(TINY, 2)
        plan = plan_universe(TINY, 2)
        for channel in range(TINY.n_channels):
            unit = run_channel_unit(plan, channel)
            assert (unit["rep_seed"], unit["channel"]) == (2, channel)
            assert ChannelOutcome(**unit["normal"]) == rep.normal[channel]
            assert ChannelOutcome(**unit["fast"]) == rep.fast[channel]

    @pytest.mark.parametrize("topology", ["", "transcontinental"], ids=["ideal", "wan"])
    def test_serial_rep_holds_one_channel_at_a_time(self, topology, monkeypatch):
        """A mesh runs on its own engine and is freed, without a collection,
        before the next channel starts: whenever a session starts to run,
        every session alive is one of that channel's pair."""
        started, alive_at_start = [], []
        run = SwitchSession.run

        def counted_run(session):
            started.append(weakref.ref(session))
            alive_at_start.append([s.label for s in (ref() for ref in started) if s is not None])
            return run(session)

        monkeypatch.setattr(SwitchSession, "run", counted_run)
        gc.collect()
        gc.disable()
        try:
            rep = run_universe_rep(replace(TINY, topology=topology), 0)
        finally:
            gc.enable()
        running = [outcome.name for outcome in rep.normal for _ in ("normal", "fast")]
        assert [set(labels) for labels in alive_at_start] == [{name} for name in running]
        assert max(len(labels) for labels in alive_at_start) <= 2
        assert [ref() for ref in started] == [None] * len(started)

    def test_outcomes_are_paired_and_measured(self):
        rep = run_universe_rep(TINY, 0)
        assert rep.n_channels == len(rep.normal) == len(rep.fast) == TINY.n_channels
        assert rep.n_viewers == TINY.n_viewers
        assert all(o.algorithm == "normal" for o in rep.normal)
        assert all(o.algorithm == "fast" for o in rep.fast)
        assert sum(o.audience for o in rep.fast) == TINY.n_viewers
        for normal, fast in zip(rep.normal, rep.fast):
            assert normal.channel == fast.channel
            assert normal.n_peers > 0
            assert fast.mean_zap_time > 0
            assert 0.0 <= fast.continuity <= 1.0

    def test_rep_dict_round_trip(self):
        rep = run_universe_rep(TINY, 1)
        # The dict forms cover the raw outcome table only: the streaming
        # aggregate block persists as a store-document sibling, not inside
        # the rep payload, so the round trip reconstructs it as None.
        assert rep.aggregates is not None
        restored = rep_from_dict(rep_to_dict(rep))
        assert restored.aggregates is None
        assert restored == replace(rep, aggregates=None)


class TestRunnerDeterminism:
    def test_fast_beats_normal_on_every_decile(self):
        result = run_universe(TINY, seed=0, repetitions=2)
        rows = result.decile_rows()
        assert rows, "expected populated deciles"
        for row in rows:
            assert row["fast_zap_time"] < row["normal_zap_time"], row
        assert result.mean_reduction > 0

    def test_channel_rows_cover_the_lineup(self):
        result = run_universe(TINY, seed=0)
        rows = result.channel_rows()
        assert len(rows) == TINY.n_channels
        assert [row["decile"] for row in rows] == sorted(row["decile"] for row in rows)


class TestRunnerStore:
    def test_store_replays_bit_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_universe(TINY, seed=0, repetitions=2, store=store)
        assert first.simulated == 2 and first.replayed == 0
        second = run_universe(TINY, seed=0, repetitions=2, store=store)
        assert second.simulated == 0 and second.replayed == 2
        assert first.reps == second.reps

    def test_replay_only_store_refuses_to_simulate(self, tmp_path):
        store = ResultStore(tmp_path, replay_only=True)
        with pytest.raises(MissingResultError):
            run_universe(TINY, seed=0, store=store)

    def test_fingerprint_rotates_with_spec_and_seed(self):
        base = universe_fingerprint(TINY, 0)
        assert base.startswith("universe-")
        assert universe_fingerprint(TINY, 1) != base
        changed = UniverseSpec.from_dict({**TINY.to_dict(), "surfer_zap_rate": 0.2})
        assert universe_fingerprint(changed, 0) != base
        assert universe_fingerprint(TINY, 0, version="other") != base

    def test_runner_validates_arguments(self):
        with pytest.raises(ValueError):
            run_universe(TINY, workers=0)
        with pytest.raises(ValueError):
            run_universe(TINY, shards=0)
        with pytest.raises(ValueError):
            run_universe(TINY, repetitions=0)
