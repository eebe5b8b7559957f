"""Pull-based gossip streaming substrate.

This subpackage implements the CoolStreaming-style mesh/pull streaming
system the paper evaluates on, with the configuration of Section 5.1:

* streaming rate 300 kbit/s split into 30 kbit segments, i.e. a playback
  rate of ``p = 10`` segments/second,
* a FIFO buffer of ``B = 600`` segments per node,
* node inbound rates of 10--33 segments/second averaging 15 (300 kbit/s --
  1 Mbit/s averaging 450 kbit/s); outbound rates alike; sources have zero
  inbound and a much larger outbound rate,
* a data scheduling period of ``tau = 1`` second in which every node
  exchanges buffer maps with its ``M = 5`` neighbours (620 bits per
  neighbour) and then requests segments,
* playback of the old source (re)starts after ``Q = 10`` consecutive
  segments; playback of the new source needs its first ``Qs = 50``
  segments.

Modules
-------
:mod:`repro.streaming.segment`
    Stream descriptors and segment-id arithmetic.
:mod:`repro.streaming.buffer`
    The per-node FIFO segment buffer (eviction order, tail positions).
:mod:`repro.streaming.buffermap`
    Buffer-map snapshots and their wire-size accounting.
:mod:`repro.streaming.bandwidth`
    Bandwidth sampling and the per-period outbound capacity ledger.
:mod:`repro.streaming.protocol`
    Wire sizes of protocol messages (used by the communication-overhead
    metric and the probe timeline).
:mod:`repro.streaming.playback`
    Per-stream playback state machines.
:mod:`repro.streaming.source`
    Source node behaviour (segment generation, end-of-stream marker).
:mod:`repro.streaming.peer`
    Peer behaviour: view construction, request execution, playback.
:mod:`repro.streaming.session`
    The two-source switch session driving a whole simulation run.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "StreamSpec": "repro.streaming.segment",
    "SwitchPlan": "repro.streaming.segment",
    "SegmentBuffer": "repro.streaming.buffer",
    "BufferMapSnapshot": "repro.streaming.buffermap",
    "buffer_map_bits": "repro.streaming.buffermap",
    "BandwidthProfile": "repro.streaming.bandwidth",
    "OutboundLedger": "repro.streaming.bandwidth",
    "PeerClass": "repro.streaming.bandwidth",
    "draw_class_indices": "repro.streaming.bandwidth",
    "sample_rates": "repro.streaming.bandwidth",
    "PlaybackState": "repro.streaming.playback",
    "SourceNode": "repro.streaming.source",
    "PeerNode": "repro.streaming.peer",
    "SwitchSession": "repro.streaming.session",
    "SessionResult": "repro.streaming.config",
    "PeriodDirective": "repro.streaming.config",
    "build_session_overlay": "repro.streaming.session",
})
