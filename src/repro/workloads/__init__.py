"""Time-scripted workload engine.

The paper evaluates one event: a single S1->S2 source switch under static
or uniform 5 %/5 % churn.  This subpackage generalises the evaluation into
declarative, replayable **workloads** -- scripts of phases that zap between
sources repeatedly, fire churn bursts and correlated failures, shift
bandwidth regimes and draw peers from heterogeneous access classes.

Modules
-------
:mod:`repro.workloads.spec`
    Frozen :class:`WorkloadSpec`/:class:`Phase`/:class:`PeerClass`
    dataclasses with an exact dict round trip (what the store
    fingerprints).
:mod:`repro.workloads.schedule`
    Compiles a spec into deterministic per-period
    :class:`~repro.streaming.config.PeriodDirective` maps, one switch
    segment per ``switch=True`` phase.
:mod:`repro.workloads.runner`
    Paired (fast vs normal) execution of compiled workloads: store-backed,
    parallel over repetitions, bit-identical to serial.
:mod:`repro.workloads.library`
    The registry of named workloads (``zapping``, ``flash-crowd``,
    ``evening-peak``, ``correlated-failure``, ``bandwidth-degradation``,
    ``paper-baseline``) and of named multi-channel universes
    (``lineup-zipf``, ``prime-time``, ``lineup-mini``; see
    :mod:`repro.channels`).

Quickstart
----------
>>> from repro.workloads import get_workload, run_workload
>>> result = run_workload(get_workload("zapping"))      # doctest: +SKIP
>>> result.mean_reduction > 0                           # doctest: +SKIP
True
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "WorkloadSpec": "repro.workloads.spec",
    "Phase": "repro.workloads.spec",
    "PeerClass": "repro.streaming.config",
    "compile_workload": "repro.workloads.schedule",
    "WorkloadSchedule": "repro.workloads.schedule",
    "SegmentPlan": "repro.workloads.schedule",
    "PhaseWindow": "repro.workloads.schedule",
    "WorkloadResult": "repro.workloads.runner",
    "WorkloadRepResult": "repro.workloads.runner",
    "SwitchOutcome": "repro.workloads.runner",
    "run_workload": "repro.workloads.runner",
    "run_workload_rep": "repro.workloads.runner",
    "workload_fingerprint": "repro.workloads.runner",
    "WORKLOADS": "repro.workloads.library",
    "IPTV_CLASSES": "repro.workloads.library",
    "get_workload": "repro.workloads.library",
    "workload_names": "repro.workloads.library",
    "UNIVERSES": "repro.workloads.library",
    "get_universe": "repro.workloads.library",
    "universe_names": "repro.workloads.library",
})
