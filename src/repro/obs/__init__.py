"""Zero-overhead observability: metrics registry, span tracing, exporters.

The package is the answer to "where does a period spend its time?" without
ever taxing the answer's subject:

* :mod:`repro.obs.metrics` -- counters, gauges and sketch-backed
  histograms behind no-op-when-disabled handles;
* :mod:`repro.obs.trace` -- ``trace_span``-style spans feeding both a
  bounded Chrome trace-event buffer and a per-phase duration profile;
* :mod:`repro.obs.telemetry` -- the process-local on/off switchboard
  (:func:`get_telemetry` / :func:`telemetry_session`);
* :mod:`repro.obs.export` -- the ``telemetry-*`` store-document digest
  and the Perfetto-loadable Chrome trace file.

Telemetry is off by default and provably inert: store documents and
fingerprints are byte-identical with it on or off, and the disabled
handles cost one attribute lookup per call site.

Quick start::

    from repro.obs import telemetry_session, write_chrome_trace

    with telemetry_session() as tel:
        result = SwitchSession(config).run()
    print(tel.snapshot()["spans"])           # the phase profile
    write_chrome_trace(tel, "trace.json")    # open in ui.perfetto.dev
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "Counter": "repro.obs.metrics",
    "DROP_REASONS": "repro.obs.probes",
    "FUNNEL_MILESTONES": "repro.obs.probes",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NULL_PROBES": "repro.obs.probes",
    "NULL_TELEMETRY": "repro.obs.telemetry",
    "NullProbeSet": "repro.obs.probes",
    "NullTelemetry": "repro.obs.telemetry",
    "ProbeSet": "repro.obs.probes",
    "STAGE_NAMES": "repro.obs.probes",
    "SegmentLifecycleProbe": "repro.obs.probes",
    "Span": "repro.obs.trace",
    "StartupFunnelProbe": "repro.obs.probes",
    "SwarmHealthProbe": "repro.obs.probes",
    "Telemetry": "repro.obs.telemetry",
    "Tracer": "repro.obs.trace",
    "build_telemetry_document": "repro.obs.export",
    "chrome_trace_payload": "repro.obs.export",
    "disable_telemetry": "repro.obs.telemetry",
    "enable_telemetry": "repro.obs.telemetry",
    "get_telemetry": "repro.obs.telemetry",
    "shard_span_rows": "repro.obs.export",
    "telemetry_session": "repro.obs.telemetry",
    "trace_span": "repro.obs.telemetry",
    "write_chrome_trace": "repro.obs.export",
})
