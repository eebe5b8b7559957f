"""Tests for the urgency/rarity priority computation (Eq. 6-9)."""

import pytest

from repro.core.base import NeighbourView
from repro.core.priority import (
    URGENCY_CAP,
    deadline_slack,
    max_receive_rate,
    priority_for_view,
    rarity,
    request_priority,
    urgency,
)


def _neighbour(node_id=1, send_rate=10.0, available=(), positions=None, capacity=600):
    available = frozenset(available)
    positions = positions or {seg: 1 for seg in available}
    return NeighbourView(
        node_id=node_id,
        send_rate=send_rate,
        available=available,
        positions=positions,
        buffer_capacity=capacity,
    )


def test_max_receive_rate_is_paper_eq6():
    assert max_receive_rate([3.0, 9.0, 5.0]) == 9.0
    assert max_receive_rate([]) == 0.0


def test_deadline_slack_formula():
    # (id_i - id_play)/p - 1/R_i = (20-10)/10 - 1/5 = 1 - 0.2
    assert deadline_slack(20, 10, 10.0, 5.0) == pytest.approx(0.8)


def test_deadline_slack_requires_positive_play_rate():
    with pytest.raises(ValueError):
        deadline_slack(20, 10, 0.0, 5.0)


def test_urgency_is_inverse_slack_and_capped():
    assert urgency(20, 10, 10.0, 5.0) == pytest.approx(1.0 / 0.8)
    # segment already at/behind the playback position -> capped
    assert urgency(10, 10, 10.0, 5.0) == URGENCY_CAP
    # unservable segment (no receive rate) -> capped
    assert urgency(30, 10, 10.0, 0.0) == URGENCY_CAP


def test_urgency_decreases_with_playback_distance():
    close = urgency(15, 10, 10.0, 10.0)
    far = urgency(60, 10, 10.0, 10.0)
    assert close > far


def test_rarity_is_product_of_positions_over_capacity():
    assert rarity([300, 600], 600) == pytest.approx(0.5 * 1.0)
    assert rarity([1], 600) == pytest.approx(1.0 / 600.0)
    assert rarity([], 600) == 1.0


def test_rarity_with_per_supplier_capacities():
    assert rarity([50, 100], [100, 1000]) == pytest.approx(0.5 * 0.1)
    with pytest.raises(ValueError):
        rarity([50, 100], [100])
    with pytest.raises(ValueError):
        rarity([50], [0])


def test_rarity_clamps_out_of_range_positions():
    assert rarity([0], 600) == pytest.approx(1.0 / 600.0)   # below 1 clamped up
    assert rarity([900], 600) == pytest.approx(1.0)          # above B clamped down


def test_rarity_higher_when_close_to_eviction_everywhere():
    endangered = rarity([590, 595], 600)
    safe = rarity([5, 10], 600)
    assert endangered > safe


def test_request_priority_is_max_of_both_terms():
    assert request_priority(0.3, 0.8) == 0.8
    assert request_priority(2.0, 0.1) == 2.0


def test_priority_for_view_paper_policy_uses_positions():
    suppliers = [
        _neighbour(1, send_rate=10.0, available={50}, positions={50: 590}),
        _neighbour(2, send_rate=5.0, available={50}, positions={50: 595}),
    ]
    value = priority_for_view(50, suppliers, playback_id=45, play_rate=10.0)
    # rarity term: (590/600)*(595/600) ~ 0.975 dominates urgency ~ 2.5? no:
    # slack = 0.5 - 0.1 = 0.4 -> urgency 2.5 dominates.
    assert value == pytest.approx(
        max(1.0 / (0.5 - 0.1), (590 / 600) * (595 / 600))
    )


def test_far_segment_priority_is_its_rarity():
    suppliers = [
        _neighbour(1, send_rate=10.0, available={80}, positions={80: 550}),
        _neighbour(2, send_rate=10.0, available={80}, positions={80: 580}),
    ]
    value = priority_for_view(80, suppliers, 10, 10.0)
    # far-away segment: urgency is small, so the rarity term dominates
    assert value == rarity([550, 580], 600) > urgency(80, 10, 10.0, 10.0)
