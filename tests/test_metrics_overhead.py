"""Tests for communication-overhead accounting."""

import pytest

from repro.metrics.overhead import OverheadAccountant


def test_ratio_of_control_to_data():
    accountant = OverheadAccountant()
    accountant.add_control(620 * 5)
    accountant.add_data(30 * 1024 * 10)
    assert accountant.overhead_ratio() == pytest.approx((620 * 5) / (30 * 1024 * 10))


def test_paper_back_of_envelope_one_percent():
    """The paper's own calculation: 620 bits x M=5 over 10 segments of 30 Kb ~ 1%."""
    accountant = OverheadAccountant()
    accountant.add_control(620 * 5)
    accountant.add_data(30 * 1024 * 10)
    assert 0.005 < accountant.overhead_ratio() < 0.015


def test_requests_are_tracked_but_not_charged():
    accountant = OverheadAccountant()
    accountant.add_control(1000)
    accountant.add_request(500)
    accountant.add_data(10_000)
    assert accountant.request_bits == 500
    assert accountant.overhead_ratio() == pytest.approx(0.1)
    assert accountant.close_period(1.0).ratio() == pytest.approx(0.1)


def test_zero_data_gives_zero_ratio():
    accountant = OverheadAccountant()
    accountant.add_control(1000)
    assert accountant.overhead_ratio() == 0.0


def test_negative_amounts_rejected():
    accountant = OverheadAccountant()
    with pytest.raises(ValueError):
        accountant.add_control(-1)
    with pytest.raises(ValueError):
        accountant.add_request(-1)
    with pytest.raises(ValueError):
        accountant.add_data(-1)


def test_period_samples_and_series():
    accountant = OverheadAccountant()
    accountant.add_control(100)
    accountant.add_data(1000)
    first = accountant.close_period(1.0)
    accountant.add_control(100)
    accountant.add_data(3000)
    second = accountant.close_period(2.0)
    assert first.ratio() == pytest.approx(0.1)
    assert second.ratio() == pytest.approx(200 / 4000)
    series = accountant.ratio_series()
    assert [t for t, _ in series] == [1.0, 2.0]
    assert accountant.last_sample() is accountant.samples[-1]


def test_last_sample_none_when_empty():
    assert OverheadAccountant().last_sample() is None
