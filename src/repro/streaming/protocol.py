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

__all__ = ["SEGMENT_REQUEST_BITS"]

#: Wire size of one segment request: a 20-bit segment id plus minimal framing.
SEGMENT_REQUEST_BITS: int = 32
