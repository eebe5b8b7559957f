"""Tests for stream specs and the switch plan."""

import pytest

from repro.core.base import Stream
from repro.streaming.segment import (
    DEFAULT_SEGMENT_BITS,
    StreamSpec,
    SwitchPlan,
)


def test_default_segment_size_matches_paper():
    # 30 Kb per segment
    assert DEFAULT_SEGMENT_BITS == 30 * 1024


def test_stream_spec_generation_counting():
    spec = StreamSpec(stream=Stream.NEW, source_id=1, first_id=900, rate=10.0)
    assert spec.segments_generated_by(0.0, 0.0) == 0
    assert spec.segments_generated_by(0.0, 2.5) == 25
    assert spec.segments_generated_by(5.0, 2.0) == 0  # before the start
    assert spec.id_at(0) == 900
    assert spec.id_at(24) == 924


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec(stream=Stream.OLD, source_id=0, first_id=0, rate=0.0)
    with pytest.raises(ValueError):
        StreamSpec(stream=Stream.OLD, source_id=0, first_id=-1, rate=10.0)
    with pytest.raises(ValueError):
        StreamSpec(stream=Stream.OLD, source_id=0, first_id=0, rate=10.0, segment_bits=0)
    spec = StreamSpec(stream=Stream.OLD, source_id=0, first_id=0, rate=10.0)
    with pytest.raises(ValueError):
        spec.id_at(-1)


def test_switch_plan_boundary_and_classification():
    plan = SwitchPlan.from_old_stream(899, startup_quota=50)
    assert plan.id_end == 899
    assert plan.id_begin == 900
    assert plan.stream_of(899) is Stream.OLD
    assert plan.stream_of(900) is Stream.NEW
    assert list(plan.startup_ids()) == list(range(900, 950))


def test_switch_plan_enforces_paper_convention():
    with pytest.raises(ValueError):
        SwitchPlan(id_end=10, id_begin=12)
    with pytest.raises(ValueError):
        SwitchPlan(id_end=10, id_begin=11, startup_quota=0)
