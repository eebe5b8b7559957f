"""Tests for the Fast Source Switch Algorithm (Algorithm 1)."""

import pytest

from repro.core.allocation import AllocationCase
from repro.core.base import LocalView, NeighbourView, Stream
from repro.core.fast_switch import FastSwitchAlgorithm


def _neighbour(node_id, available, send_rate=20.0, positions=None, capacity=600):
    available = frozenset(available)
    return NeighbourView(
        node_id=node_id,
        send_rate=send_rate,
        available=available,
        positions=positions or {seg: 1 for seg in available},
        buffer_capacity=capacity,
    )


def _view(
    old_needed,
    new_needed,
    neighbours,
    *,
    inbound=7.0,
    playback_id=0,
    id_end=4,
    q=2,
    qs=5,
):
    return LocalView(
        now=0.0,
        tau=1.0,
        play_rate=10.0,
        inbound_rate=inbound,
        playback_id=playback_id,
        startup_quota_old=q,
        startup_quota_new=qs,
        old_needed=frozenset(old_needed),
        new_needed=frozenset(new_needed),
        id_end=id_end,
        id_begin=id_end + 1,
        neighbours=tuple(neighbours),
    )


def test_interleaves_old_and_new_segments_like_figure2():
    """With both streams available the request set mixes S1 and S2 segments."""
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    decision = FastSwitchAlgorithm().schedule(view)
    assert len(decision.requests) == 7  # inbound capacity
    assert len(decision.old_requests) > 0
    assert len(decision.new_requests) > 0
    # never exceed the capacity and never request something not needed
    assert decision.requested_ids() <= view.needed()


def test_reports_model_quantities():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    decision = FastSwitchAlgorithm().schedule(view)
    assert decision.r1 is not None and decision.r2 is not None
    assert decision.r1 + decision.r2 == pytest.approx(view.inbound_rate)
    assert decision.case in list(AllocationCase)
    assert decision.o1 >= 0 and decision.o2 >= 0


def test_zero_capacity_produces_empty_decision():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour],
                 inbound=0.0)
    decision = FastSwitchAlgorithm().schedule(view)
    assert decision.requests == ()


def test_no_candidates_produces_empty_decision():
    neighbour = _neighbour(1, available=[])
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    decision = FastSwitchAlgorithm().schedule(view)
    assert decision.requests == ()


def test_single_stream_view_degenerates_to_plain_scheduling():
    neighbour = _neighbour(1, available=range(0, 20))
    view = _view(old_needed=range(0, 20), new_needed=[], neighbours=[neighbour], inbound=5.0)
    decision = FastSwitchAlgorithm().schedule(view)
    assert len(decision.requests) == 5
    assert all(r.stream is Stream.OLD for r in decision.requests)
    assert decision.i2 == pytest.approx(0.0)


def test_requests_only_target_suppliers_that_hold_the_segment():
    n1 = _neighbour(1, available={0, 1, 2})
    n2 = _neighbour(2, available={5, 6})
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[n1, n2])
    decision = FastSwitchAlgorithm().schedule(view)
    holders = {1: {0, 1, 2}, 2: {5, 6}}
    for request in decision.requests:
        assert request.seg_id in holders[request.supplier_id]


def test_capacity_never_exceeded_even_with_many_candidates():
    neighbours = [
        _neighbour(1, available=range(0, 30)),
        _neighbour(2, available=range(0, 60)),
    ]
    view = _view(old_needed=range(0, 30), new_needed=range(31, 80), neighbours=neighbours,
                 inbound=9.0, id_end=30)
    decision = FastSwitchAlgorithm().schedule(view)
    assert len(decision.requests) <= 9
    assert len(set(r.seg_id for r in decision.requests)) == len(decision.requests)


def test_urgent_old_segments_requested_before_distant_new_ones():
    """The segment right at the playback deadline must be in the request set."""
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour],
                 inbound=3.0)
    decision = FastSwitchAlgorithm().schedule(view)
    requested = decision.requested_ids()
    assert 0 in requested  # the most urgent old segment


def test_fast_algorithm_fills_capacity_when_one_stream_is_short():
    # Only 1 new segment available, plenty of old: the inbound capacity is
    # still spent in full.
    n_old = _neighbour(1, available=range(0, 20))
    n_new = _neighbour(2, available={25})
    view = _view(old_needed=range(0, 20), new_needed=range(25, 30),
                 neighbours=[n_old, n_new], inbound=10.0, id_end=20)
    decision = FastSwitchAlgorithm().schedule(view)
    assert len(decision.requests) == 10


def test_rarity_rescues_endangered_new_source_segments():
    """When supplier capacity is scarce, rarity decides what gets scheduled.

    All candidate segments are far from their playback deadline (low
    urgency) but the new-source segments are about to be evicted from the
    only supplier's buffer (high rarity).  Eq. 9 therefore schedules the
    endangered new-source segments first instead of the oldest ids, which
    is all the single slow supplier could otherwise send this period.
    """
    old_ids = list(range(30, 35))
    new_ids = list(range(40, 45))
    positions = {**{s: 1 for s in old_ids}, **{s: 590 + (s - 40) for s in new_ids}}
    supplier = _neighbour(1, available=old_ids + new_ids, send_rate=6.0,
                          positions=positions)
    view = _view(old_needed=old_ids, new_needed=new_ids, neighbours=[supplier],
                 inbound=4.0, playback_id=0, id_end=39)
    requested = FastSwitchAlgorithm().schedule(view).requested_ids()
    assert requested != set(old_ids[: len(requested)])
    assert any(seg in requested for seg in new_ids)


def test_algorithm_is_stateless_across_calls():
    neighbour = _neighbour(1, available=range(0, 10))
    view = _view(old_needed=range(0, 5), new_needed=range(5, 10), neighbours=[neighbour])
    algorithm = FastSwitchAlgorithm()
    first = algorithm.schedule(view)
    second = algorithm.schedule(view)
    assert first.requested_ids() == second.requested_ids()
    assert first.i1 == second.i1 and first.i2 == second.i2
