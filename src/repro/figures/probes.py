"""Probe-backed figures: swarm health timelines and the startup funnel.

These figures read the ``probes`` block that a ``--probes`` run exports
into its ``telemetry-*`` store document (see :mod:`repro.obs.probes` and
:func:`repro.obs.export.build_telemetry_document`): the per-period swarm
health series (buffer-fill percentiles, pending-request depth, supplier
utilisation, request/failure/delivery tallies) and the aggregated
startup funnel (joined -> first_map -> first_segment -> playback).

Telemetry documents without probe data -- ``--telemetry`` runs where
probes stayed off -- are skipped; when no document carries probes the
figures raise :class:`~repro.figures.spec.FigureUnavailable`, which
the report renderer treats as "skip this figure", exactly like the
universe figures on an empty store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.store import BaseResultStore
from repro.figures.spec import FigureResult, FigureSpec, FigureUnavailable
from repro.obs.explain import run_label
from repro.obs.probes import FUNNEL_MILESTONES

__all__ = [
    "probe_swarm_health",
    "probe_startup_funnel",
    "PROBE_FIGURES",
]


def _probe_documents(
    store: Optional[BaseResultStore],
) -> List[Tuple[str, Dict[str, Any]]]:
    """Every telemetry document carrying an enabled probes block.

    Returned as ``(key, document)`` in key order -- deterministic
    regardless of store layout.  Raises :class:`FigureUnavailable` with
    actionable guidance when the store has telemetry but no probe data
    (or no telemetry at all).
    """
    if store is None:
        raise FigureUnavailable(
            "probe figures need a results store; pass store=... "
            "(e.g. --results-dir on the CLI)"
        )
    documents = store.documents("telemetry")
    probed = [
        (key, document) for key, document in documents
        if isinstance(document.get("probes"), dict) and document["probes"].get("enabled")
    ]
    plain = len(documents) - len(probed)
    if not probed:
        if plain:
            raise FigureUnavailable(
                f"found {plain} telemetry document(s) but none with probe "
                "data; re-run with --probes to record the protocol series"
            )
        raise FigureUnavailable(
            "the store holds no telemetry documents with probe data; "
            "run e.g. `repro run --probes` against this store first"
        )
    return probed


def probe_swarm_health(
    *,
    store: Optional[BaseResultStore] = None,
) -> FigureResult:
    """Per-period swarm health from the probes' health series."""
    documents = _probe_documents(store)
    rows: List[Dict[str, object]] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    multiple = len(documents) > 1
    for key, document in documents:
        health = document["probes"].get("health", {})
        run = run_label(document.get("run", {})) or key
        # One line per session: a probe that watched several sessions tags
        # its rows with a ``session`` column, and each restarts its clock.
        sessions: Dict[object, List[Dict[str, Any]]] = {}
        for sample in health.get("series", []):
            row: Dict[str, object] = {}
            if multiple:
                row["run"] = run
            row.update(sample)
            rows.append(row)
            sessions.setdefault(sample.get("session"), []).append(sample)
        for session, points in sessions.items():
            tags = [run] if multiple else []
            tags += [] if session is None else [f"session {session}"]
            suffix = f" ({', '.join(tags)})" if tags else ""
            for column in ("fill_p50", "pending", "utilisation"):
                series[f"{column}{suffix}"] = [
                    (float(p["time"]), float(p[column])) for p in points
                ]
    if not rows:
        raise FigureUnavailable(
            "the probe-bearing telemetry documents carry no health series; "
            "the probed run recorded zero scheduling periods"
        )
    return FigureResult(
        figure_id="P-health",
        title="Swarm health timeline (protocol probes)",
        rows=rows,
        series=series,
        notes="Per-period buffer-fill percentiles, pending-request depth and "
              "supplier utilisation from the swarm-health probe.",
        meta={"documents": len(documents), "source": "probes"},
    )


def probe_startup_funnel(
    *,
    store: Optional[BaseResultStore] = None,
) -> FigureResult:
    """The aggregated startup funnel across probed runs."""
    documents = _probe_documents(store)
    rows: List[Dict[str, object]] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    multiple = len(documents) > 1
    for key, document in documents:
        funnel = document["probes"].get("funnel", {})
        run = run_label(document.get("run", {})) or key
        for funnel_row in funnel.get("rows", []):
            row: Dict[str, object] = {}
            if multiple:
                row["run"] = run
            row.update(funnel_row)
            rows.append(row)
            label = str(funnel_row.get("label", ""))
            name = f"{label} ({run})" if multiple else label
            series[name] = [
                (float(i), float(funnel_row.get(milestone, 0) or 0))
                for i, milestone in enumerate(FUNNEL_MILESTONES)
            ]
    if not rows:
        raise FigureUnavailable(
            "the probe-bearing telemetry documents carry no funnel rows; "
            "the probed run created no peers"
        )
    return FigureResult(
        figure_id="P-funnel",
        title="Startup funnel (protocol probes)",
        rows=rows,
        series=series,
        notes="Peers reaching each milestone (joined -> first_map -> "
              "first_segment -> playback) and mean seconds since join.",
        meta={"documents": len(documents), "source": "probes"},
    )


#: The probe-backed figures in report order: (name, title, builder, slug,
#: description).
PROBE_FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec("probe-swarm-health", "Swarm health timeline", probe_swarm_health, "P-health",
               "Per-period buffer-fill distribution, pending-request depth and supplier "
               "utilisation from the swarm-health probe of --probes runs."),
    FigureSpec("probe-startup-funnel", "Startup funnel", probe_startup_funnel, "P-funnel",
               "How many peers reached each startup milestone and how fast, from the "
               "startup-funnel probe of --probes runs."),
)
