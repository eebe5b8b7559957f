"""Tests for the protocol's wire sizes."""

from repro.streaming.protocol import SEGMENT_REQUEST_BITS
from repro.streaming.segment import DEFAULT_SEGMENT_BITS


def test_wire_sizes_are_a_32_bit_request_and_a_30kb_payload():
    assert SEGMENT_REQUEST_BITS == 32
    assert DEFAULT_SEGMENT_BITS == 30 * 1024
