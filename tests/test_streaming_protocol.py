"""Tests for the protocol's wire sizes."""

from repro.streaming.protocol import SEGMENT_REQUEST_BITS, STAGE_WIRE_BITS
from repro.streaming.segment import DEFAULT_SEGMENT_BITS


def test_stage_wire_bits_are_a_request_and_a_30kb_payload():
    assert STAGE_WIRE_BITS == {
        "scheduled": SEGMENT_REQUEST_BITS,
        "delivered": DEFAULT_SEGMENT_BITS,
    }
    assert DEFAULT_SEGMENT_BITS == 30 * 1024
