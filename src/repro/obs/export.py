"""Telemetry exporters: the JSON telemetry document and the Chrome trace.

Two consumers, two shapes:

* :func:`build_telemetry_document` -- the compact digest persisted beside
  run documents as a ``telemetry-*`` store document (counters, the
  per-span-name phase profile, one row per shard span and the probes
  block), read back by ``repro explain`` and the report's "Run telemetry"
  section through :func:`repro.obs.explain.telemetry_tables`;
* :func:`chrome_trace_payload` / :func:`write_chrome_trace` -- the full
  event buffer in Chrome trace-event JSON object form
  (``{"traceEvents": [...]}``), loadable directly in ``chrome://tracing``
  and https://ui.perfetto.dev.

This module deliberately imports nothing from the experiments layer; the
store-side helpers (``telemetry_fingerprint``/``persist_telemetry_document``)
live in :mod:`repro.experiments.store` next to the other fingerprints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.telemetry import NullTelemetry, Telemetry

__all__ = [
    "build_telemetry_document",
    "chrome_trace_payload",
    "shard_span_rows",
    "write_chrome_trace",
]


def shard_span_rows(telemetry: "Telemetry | NullTelemetry") -> List[Dict[str, Any]]:
    """One row per recorded ``shard.execute`` span, in shard order."""
    if not telemetry.enabled:
        return []
    rows = []
    for event in telemetry.tracer.spans_named("shard.execute"):
        args = event.get("args", {})
        rows.append({
            "shard": args.get("shard"),
            "worker": event.get("tid"),
            "label": args.get("label", ""),
            "duration_s": round(float(event.get("dur", 0.0)) / 1e6, 6),
        })
    rows.sort(key=lambda row: (row["shard"] is None, row["shard"], row["worker"]))
    return rows


def build_telemetry_document(
    telemetry: "Telemetry | NullTelemetry",
    *,
    run: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON digest a ``telemetry-*`` store document carries.

    ``run`` identifies what was measured (kind, name, seed, ...); it is
    echoed verbatim so the report can label the section, and it is the
    only input to the document's store key -- telemetry *content* never
    feeds a fingerprint.
    """
    snapshot = telemetry.snapshot()
    return {
        "kind": "telemetry",
        "run": dict(run or {}),
        "counters": snapshot["counters"],
        "spans": snapshot["spans"],
        "shards": shard_span_rows(telemetry),
        "probes": telemetry.probes.snapshot(),
        "trace": (
            {"events": len(telemetry.tracer.events()), "dropped": telemetry.tracer.dropped}
            if telemetry.enabled else {"events": 0, "dropped": 0}
        ),
    }


def chrome_trace_payload(
    telemetry: "Telemetry | NullTelemetry",
    *,
    run: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The trace in Chrome trace-event JSON *object* form.

    The object form (rather than the bare array) carries
    ``displayTimeUnit`` and an ``otherData`` bag naming the run; both
    viewers accept it.
    """
    events = telemetry.tracer.events() if telemetry.enabled else []
    other: Dict[str, str] = {str(k): str(v) for k, v in sorted((run or {}).items())}
    if telemetry.enabled and telemetry.tracer.dropped:
        other["dropped_events"] = str(telemetry.tracer.dropped)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    telemetry: "Telemetry | NullTelemetry",
    path: "str | Path",
    *,
    run: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write the Chrome trace-event file; returns its path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    payload = chrome_trace_payload(telemetry, run=run)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    return target
