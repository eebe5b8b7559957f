"""Wire sizes of protocol messages.

The simulator does not route real packets, but the communication-overhead
metric (Section 5.2, metric 3) needs the *sizes* of what would be on the
wire: a buffer map costs 620 bits per neighbour with the paper's
parameters, a segment request :data:`SEGMENT_REQUEST_BITS` and a delivered
segment 30 kbit of payload.  The paper's overhead definition only divides
buffer-map bits by delivered data bits
(:class:`repro.metrics.overhead.OverheadAccountant`); request bits are
tracked but not charged.
"""

from __future__ import annotations

from typing import Dict

from repro.streaming.segment import DEFAULT_SEGMENT_BITS

__all__ = [
    "SEGMENT_REQUEST_BITS",
    "STAGE_WIRE_BITS",
]

#: Wire size of one segment request: a 20-bit segment id plus minimal framing.
SEGMENT_REQUEST_BITS: int = 32

#: Wire cost (bits) of the message behind each segment-lifecycle probe stage
#: (:mod:`repro.obs.probes`): ``scheduled`` puts a request on the wire,
#: ``delivered`` a segment payload; the other stages are peer-internal and
#: cost nothing.  The ``repro probe`` timeline renders this column.
STAGE_WIRE_BITS: Dict[str, int] = {
    "scheduled": SEGMENT_REQUEST_BITS,
    "delivered": DEFAULT_SEGMENT_BITS,
}
