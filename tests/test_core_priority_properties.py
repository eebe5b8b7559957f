"""Property-based tests for the priority terms (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import (
    URGENCY_CAP,
    rarity,
    request_priority,
    urgency,
)

positions = st.lists(st.integers(min_value=1, max_value=600), min_size=0, max_size=8)


@settings(max_examples=300, deadline=None)
@given(positions=positions, capacity=st.integers(min_value=1, max_value=600))
def test_rarity_always_in_unit_interval(positions, capacity):
    value = rarity(positions, capacity)
    assert 0.0 < value <= 1.0


@settings(max_examples=300, deadline=None)
@given(positions=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=8),
       extra=st.integers(min_value=1, max_value=600))
def test_rarity_decreases_with_more_suppliers(positions, extra):
    """Adding a supplier can only make a segment less rare (or equally rare)."""
    base = rarity(positions, 600)
    extended = rarity(positions + [extra], 600)
    assert extended <= base + 1e-12


@settings(max_examples=300, deadline=None)
@given(seg=st.integers(min_value=0, max_value=10_000),
       play=st.integers(min_value=0, max_value=10_000),
       p=st.floats(min_value=0.5, max_value=100.0),
       rate=st.floats(min_value=0.0, max_value=100.0))
def test_urgency_positive_and_capped(seg, play, p, rate):
    value = urgency(seg, play, p, rate)
    assert 0.0 < value <= URGENCY_CAP


@settings(max_examples=300, deadline=None)
@given(seg=st.integers(min_value=1, max_value=1000),
       play=st.integers(min_value=0, max_value=1000),
       p=st.floats(min_value=0.5, max_value=100.0),
       rate=st.floats(min_value=0.1, max_value=100.0),
       shift=st.integers(min_value=1, max_value=500))
def test_urgency_monotone_in_deadline_distance(seg, play, p, rate, shift):
    """A segment farther from the playback point is never more urgent."""
    near = urgency(seg, play, p, rate)
    far = urgency(seg + shift, play, p, rate)
    assert far <= near + 1e-12


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1e6),
       r=st.floats(min_value=0.0, max_value=1.0))
def test_priority_upper_bounds_both_terms(u, r):
    value = request_priority(u, r)
    assert value >= u and value >= r
    assert value in (u, r)
