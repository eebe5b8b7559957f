"""The process-local telemetry switchboard.

One module-level handle -- :func:`get_telemetry` -- is all the hot paths
ever touch.  It returns either the active :class:`Telemetry` (metrics
registry + tracer) or the shared :data:`NULL_TELEMETRY`, whose every method
is an allocation-free no-op.  Instrumented code therefore never branches on
a config flag:

    obs = get_telemetry()
    with obs.span("period.decide", t=now):
        ...
    if obs.enabled:                      # only for bulk counter updates
        obs.counter("fabric.requests").add(n)

Telemetry is **off by default** and deliberately process-local: worker
processes spawned by the dist layer inherit the default-off state, and the
parent reconstructs their per-shard spans from heartbeat/completion
messages instead -- no cross-process aggregation, no effect on the
bit-identity of anything a worker computes.

Enabling never touches simulation state, RNG streams, store fingerprints
or document payloads; the inertness tests pin that a telemetry-on run
produces byte-identical result documents.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import NULL_PROBES, NullProbeSet, ProbeSet
from repro.obs.trace import DEFAULT_MAX_EVENTS, NULL_SPAN, Span, Tracer

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "disable_telemetry",
    "enable_telemetry",
    "get_telemetry",
    "telemetry_session",
    "trace_span",
]


class Telemetry:
    """A live metrics registry and tracer behind one facade.

    ``probes=True`` additionally attaches a live
    :class:`~repro.obs.probes.ProbeSet` (sim-time protocol probes);
    otherwise :attr:`probes` is the shared disabled :data:`NULL_PROBES`, so
    instrumented code can always reach ``get_telemetry().probes.enabled``.
    """

    enabled = True

    def __init__(self, *, max_trace_events: int = DEFAULT_MAX_EVENTS,
                 probes: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_events=max_trace_events)
        self.probes: "ProbeSet | NullProbeSet" = (
            ProbeSet() if probes else NULL_PROBES
        )

    # -- metrics --------------------------------------------------------- #
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    # -- tracing --------------------------------------------------------- #
    def span(self, name: str, *, tid: int = 0, **args: Any) -> Span:
        return self.tracer.span(name, tid=tid, **args)

    def event(self, name: str, *, tid: int = 0, **args: Any) -> None:
        self.tracer.instant(name, tid=tid, **args)

    def complete_span(
        self, name: str, begin: float, end: float, *, tid: int = 0, **args: Any
    ) -> None:
        self.tracer.complete(name, begin, end, tid=tid, **args)

    # -- reading --------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """Metrics plus span statistics (the telemetry document's core)."""
        snapshot = self.registry.snapshot()
        snapshot["spans"] = self.tracer.span_stats()
        return snapshot


class NullTelemetry:
    """The disabled handle: every method is a no-op, nothing is recorded."""

    enabled = False
    probes = NULL_PROBES

    def counter(self, name: str):
        return NULL_COUNTER

    def gauge(self, name: str):
        return NULL_GAUGE

    def histogram(self, name: str):
        return NULL_HISTOGRAM

    def span(self, name: str, *, tid: int = 0, **args: Any):
        return NULL_SPAN

    def event(self, name: str, *, tid: int = 0, **args: Any) -> None:
        return None

    def complete_span(
        self, name: str, begin: float, end: float, *, tid: int = 0, **args: Any
    ) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


#: The shared disabled handle (telemetry's default state).
NULL_TELEMETRY = NullTelemetry()

_ACTIVE: "Telemetry | NullTelemetry" = NULL_TELEMETRY


def get_telemetry() -> "Telemetry | NullTelemetry":
    """The process's current telemetry handle (null when disabled)."""
    return _ACTIVE


def enable_telemetry(*, max_trace_events: int = DEFAULT_MAX_EVENTS,
                     probes: bool = False) -> Telemetry:
    """Install (and return) a fresh active :class:`Telemetry`.

    Always starts from empty instruments: two runs in one process do not
    bleed counts into each other unless the caller keeps one handle across
    both on purpose.
    """
    global _ACTIVE
    _ACTIVE = Telemetry(max_trace_events=max_trace_events, probes=probes)
    return _ACTIVE


def disable_telemetry() -> Optional[Telemetry]:
    """Return to the null handle; returns the telemetry that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = NULL_TELEMETRY
    return previous if isinstance(previous, Telemetry) else None


@contextmanager
def telemetry_session(
    *, max_trace_events: int = DEFAULT_MAX_EVENTS, probes: bool = False
) -> Iterator[Telemetry]:
    """Enable telemetry for a ``with`` block, restoring the prior handle after.

    The yielded :class:`Telemetry` stays readable after the block -- run,
    then export:

        with telemetry_session() as tel:
            session.run()
        write_chrome_trace(tel, "trace.json")

    ``probes=True`` also records the sim-time protocol probes
    (:mod:`repro.obs.probes`) -- read them back as ``tel.probes``.
    """
    global _ACTIVE
    previous = _ACTIVE
    telemetry = Telemetry(max_trace_events=max_trace_events, probes=probes)
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def trace_span(name: str, *, tid: int = 0, **args: Any):
    """Time a block against the active telemetry (no-op when disabled).

    The module-level convenience for call sites without a handle::

        with trace_span("store.migrate", documents=n):
            ...
    """
    return get_telemetry().span(name, tid=tid, **args)
