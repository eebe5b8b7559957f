"""The process-local telemetry switchboard.

One module-level handle -- :func:`get_telemetry` -- is all the hot paths
ever touch.  It returns either the active :class:`Telemetry` (counters,
tracer, probes) or the shared :data:`NULL_TELEMETRY`, whose every method
is an allocation-free no-op.  Instrumented code therefore never branches on
a config flag:

    obs = get_telemetry()
    with obs.span("period.decide", t=now):
        ...
    if obs.enabled:                      # only for bulk counter updates
        obs.count("fabric.requests", n)

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
from typing import Any, Dict, Iterator

from repro.obs.probes import NULL_PROBES, NullProbeSet, ProbeSet
from repro.obs.trace import DEFAULT_MAX_EVENTS, NULL_SPAN, Span, Tracer

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "get_telemetry",
    "telemetry_session",
]


class Telemetry:
    """Named counters, a tracer and the probes behind one facade.

    ``probes=True`` additionally attaches a live
    :class:`~repro.obs.probes.ProbeSet` (sim-time protocol probes);
    otherwise :attr:`probes` is the shared disabled :data:`NULL_PROBES`, so
    instrumented code can always reach ``get_telemetry().probes.enabled``.
    """

    enabled = True

    def __init__(self, *, max_trace_events: int = DEFAULT_MAX_EVENTS,
                 probes: bool = False) -> None:
        self.counters: Dict[str, int] = {}
        self.tracer = Tracer(max_events=max_trace_events)
        self.probes: "ProbeSet | NullProbeSet" = (
            ProbeSet() if probes else NULL_PROBES
        )

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

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
        """Counters (sorted by name) plus span statistics."""
        return {"counters": dict(sorted(self.counters.items())),
                "spans": self.tracer.span_stats()}


class NullTelemetry:
    """The disabled handle: every method is a no-op, nothing is recorded."""

    enabled = False
    probes = NULL_PROBES

    def count(self, name: str, n: int = 1) -> None:
        return None

    def span(self, name: str, *, tid: int = 0, **args: Any):
        return NULL_SPAN

    def event(self, name: str, *, tid: int = 0, **args: Any) -> None:
        return None

    def complete_span(
        self, name: str, begin: float, end: float, *, tid: int = 0, **args: Any
    ) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "spans": {}}


#: The shared disabled handle (telemetry's default state).
NULL_TELEMETRY = NullTelemetry()

_ACTIVE: "Telemetry | NullTelemetry" = NULL_TELEMETRY


def get_telemetry() -> "Telemetry | NullTelemetry":
    """The process's current telemetry handle (null when disabled)."""
    return _ACTIVE


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
