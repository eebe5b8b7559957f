"""Text view of a stored ``telemetry-*`` document (``repro explain``).

A run with ``--telemetry`` or ``--probes`` stores what it measured; this
module prints it back as fixed-width tables, reading the document's blocks
directly: the probes' segment-lifecycle stage counts, drop reasons, startup
funnel and swarm health (probed runs only), the per-span timing profile and
the counters.  It loads no NumPy and no simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.metrics.report import format_table
from repro.obs.probes import FUNNEL_MILESTONES

__all__ = ["STAGE_ORDER", "explain_document", "overflow_warning", "run_label"]

#: Lifecycle stages in the order one period emits them: the decide phase's
#: three, the exchange loop's drops, the deliveries after it, then playback.
STAGE_ORDER = ("requested", "assigned", "scheduled", "dropped", "delivered",
               "played", "missed_deadline")

#: The funnel table's columns: each milestone's count and mean time since join.
_FUNNEL_COLUMNS = ["label", "joined", *(column for milestone in FUNNEL_MILESTONES[1:]
                                        for column in (milestone, f"{milestone}_mean_s"))]

#: The swarm-health table's columns after ``t_sim``: printed name -> series field.
_HEALTH_COLUMNS = {"peers": "peers", "fill_p50": "fill_p50", "fill_p90": "fill_p90",
                   "pending": "pending", "util": "utilisation", "requests": "requests",
                   "failed": "failed", "delivered": "delivered"}


def _probe_lines(probes: Mapping[str, Any]) -> List[str]:
    lifecycle = probes["lifecycle"]
    stages: Dict[str, int] = lifecycle["stages"]
    lines = ["segment lifecycle:", format_table([
        {"stage": stage, "events": stages[stage]} for stage in sorted(stages, key=STAGE_ORDER.index)
    ])]
    drops: Dict[str, int] = lifecycle["drop_reasons"]
    if drops:
        lines += ["", "drop reasons:", format_table([
            {"reason": reason, "drops": count} for reason, count in drops.items()
        ])]
    lines += ["", "startup funnel:", format_table(probes["funnel"]["rows"], _FUNNEL_COLUMNS)]
    health = probes["health"]["series"]
    if health:
        step = max(1, len(health) // 12)
        lines += ["", f"swarm health (every {step}{'st' if step == 1 else 'th'} period):",
                  format_table([
                      {"t_sim": f"{row['time']:.1f}",
                       **{name: row[field] for name, field in _HEALTH_COLUMNS.items()}}
                      for row in health[::step]
                  ])]
    return lines + [""]


def run_label(run: Mapping[str, Any]) -> str:
    """A document's run identity as ``field=value`` pairs in field order, ``kind`` aside."""
    return ", ".join(f"{field}={run[field]}" for field in sorted(run) if field != "kind")


def explain_document(key: str, document: Mapping[str, Any]) -> str:
    """The tables of one telemetry document, under a line naming its run."""
    run = document.get("run", {})
    lines = [f"{key}: {run.get('kind', 'run')} {run_label(run)}", ""]
    probes = document.get("probes", {})
    if probes.get("enabled"):
        lines += _probe_lines(probes)
    lines += ["spans:", format_table([
        {"span": name, "count": stat["count"], "total_s": round(stat["total_s"], 4),
         "mean_ms": round(stat["mean_s"] * 1e3, 3), "p95_ms": round(stat["p95_s"] * 1e3, 3)}
        for name, stat in document.get("spans", {}).items()
    ])]
    lines += ["", "counters:", format_table([
        {"counter": name, "value": value} for name, value in document.get("counters", {}).items()
    ])]
    return "\n".join(lines)


def overflow_warning(key: str, document: Mapping[str, Any]) -> Optional[str]:
    """One line naming what the run's ring buffers dropped, or ``None``.

    Span statistics keep counting past a full trace buffer; the lifecycle
    stage and drop-reason counts cover only the events that were kept.
    """
    trace = document.get("trace", {}).get("dropped", 0)
    lifecycle = document.get("probes", {}).get("lifecycle", {}).get("dropped", 0)
    if not (trace or lifecycle):
        return None
    return (f"{key}: full ring buffers dropped {trace} trace and {lifecycle} lifecycle "
            "events (the first ones are kept)")
