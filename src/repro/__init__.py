"""repro -- a reproduction of "Fast Source Switching for Gossip-based P2P Streaming".

This package reimplements, from scratch and in pure Python, the system and
evaluation of

    Zhenhua Li, Jiannong Cao, Guihai Chen, Yan Liu.
    "Fast Source Switching for Gossip-based Peer-to-Peer Streaming",
    ICPP 2008.

Layout
------
:mod:`repro.core`
    The paper's contribution: the optimisation model of the switch process,
    the urgency/rarity request priorities, the greedy supplier assignment
    and the fast/normal switch algorithms.
:mod:`repro.sim`
    Named deterministic random streams and the rounding policy.
:mod:`repro.overlay`
    Overlay traces (clip2/DSS-style format, synthetic Gnutella-like
    generator), topology, random-edge augmentation and membership.
:mod:`repro.streaming`
    The pull-based gossip streaming substrate (buffers, buffer maps,
    bandwidth, playback, sources, peers, the switch session).
:mod:`repro.churn`
    The dynamic-environment (join/leave) model.
:mod:`repro.metrics`
    Metric collection, communication-overhead accounting, reports.
:mod:`repro.experiments`
    Experiment configurations, runners, sweeps and per-figure generators.
:mod:`repro.workloads`
    The time-scripted workload engine: declarative multi-switch zapping,
    churn-burst and bandwidth-regime scenarios over heterogeneous peer
    classes, executed paired and store-backed.
:mod:`repro.channels`
    The multi-channel universe: Zipf channel lineups, the tracker-style
    channel directory, surfing/loyal zapping processes and whole-lineup
    switch measurement, one mesh per channel.
:mod:`repro.net`
    The latency-aware network layer: named regions with an inter-region
    latency matrix, deterministic lossy links, and the network fabrics
    that turn instantaneous exchanges into delayed (and droppable)
    deliveries -- plus locality-aware overlay partner selection.

The names exported here, and by every sub-package but :mod:`repro.figures`,
are imported on first use (:mod:`repro._hub`): ``import repro`` alone loads
no other module of the package.

Quickstart
----------
>>> from repro import make_session_config, run_pair
>>> config = make_session_config(150, seed=1, max_time=60.0)
>>> pair = run_pair(config)                                   # doctest: +SKIP
>>> pair.switch_time_reduction > 0                            # doctest: +SKIP
True
"""

from repro._hub import lazy_hub

__version__ = "1.8.0"

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "__version__": __name__,
    "FastSwitchAlgorithm": "repro.core.fast_switch",
    "NormalSwitchAlgorithm": "repro.core.normal_switch",
    "optimal_split": "repro.core.model",
    "allocate_rates": "repro.core.allocation",
    "SessionConfig": "repro.streaming.config",
    "SessionResult": "repro.streaming.config",
    "SwitchSession": "repro.streaming.session",
    "make_session_config": "repro.experiments.config",
    "run_single": "repro.experiments.runner",
    "run_pair": "repro.experiments.runner",
    "generate_figure": "repro.experiments.figures",
    "WorkloadSpec": "repro.workloads.spec",
    "Phase": "repro.workloads.spec",
    "get_workload": "repro.workloads.library",
    "run_workload": "repro.workloads.runner",
    "UniverseSpec": "repro.channels.universe",
    "get_universe": "repro.workloads.library",
    "run_universe": "repro.channels.runner",
    "Region": "repro.net.topology",
    "NetTopology": "repro.net.topology",
    "IdealFabric": "repro.net.fabric",
    "LatencyFabric": "repro.net.fabric",
    "get_topology": "repro.net.library",
    "topology_names": "repro.net.library",
})
