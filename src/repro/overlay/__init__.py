"""Overlay topology substrate.

The paper's simulations run on 30 real-trace P2P overlay topologies
collected from ``dss.clip2.com`` (a Gnutella crawler, Dec 2000 -- Jun 2001),
scaled from 100 to 10000 nodes.  Of the crawl records, only the node ID, IP
and ping time are used; the overlay is then *augmented with random edges*
until every node has ``M = 5`` connected neighbours, because the raw traces
are too sparse for media streaming.

The crawler site has been gone for two decades, so this subpackage provides
(the substitution is documented in ``DESIGN.md``):

* :mod:`repro.overlay.trace` -- a reader/writer for a clip2/DSS-style text
  trace format carrying exactly the fields the paper consumed (ID, IP,
  host name, port, ping time, speed),
* :mod:`repro.overlay.generator` -- a deterministic synthetic trace
  generator producing Gnutella-like crawls (power-law-ish degrees, realistic
  ping-time and access-speed distributions) for any node count,
* :mod:`repro.overlay.topology` -- the in-memory overlay graph used by the
  simulator (adjacency, per-edge latency, per-node attributes),
* :mod:`repro.overlay.augment` -- the random-edge augmentation to reach a
  target minimum degree ``M``,
* :mod:`repro.overlay.membership` -- the gossip membership service that
  maintains neighbour lists under churn (join, leave, neighbour repair).
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "TraceNode": "repro.overlay.trace",
    "TraceRecordError": "repro.overlay.trace",
    "parse_trace": "repro.overlay.trace",
    "write_trace": "repro.overlay.trace",
    "SyntheticTraceGenerator": "repro.overlay.generator",
    "TraceSpec": "repro.overlay.generator",
    "generate_trace": "repro.overlay.generator",
    "Overlay": "repro.overlay.topology",
    "build_overlay_from_trace": "repro.overlay.topology",
    "augment_to_min_degree": "repro.overlay.augment",
    "MembershipService": "repro.overlay.membership",
})
