"""The latency-aware network layer: regions, lossy links, fabrics.

See :mod:`repro.net.topology` for the region model,
:mod:`repro.net.link` for loss/delay sampling,
:mod:`repro.net.fabric` for the session-facing fabrics and
:mod:`repro.net.library` for the named, ready-to-use topologies.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "Region": "repro.net.topology",
    "NetTopology": "repro.net.topology",
    "LinkModel": "repro.net.link",
    "NetworkFabric": "repro.net.fabric",
    "IdealFabric": "repro.net.fabric",
    "LatencyFabric": "repro.net.fabric",
    "build_fabric": "repro.net.fabric",
    "TOPOLOGIES": "repro.net.library",
    "get_topology": "repro.net.library",
    "topology_names": "repro.net.library",
})
