"""The one reading of a stored ``telemetry-*`` document.

A run with ``--telemetry`` or ``--probes`` stores what it measured;
:func:`telemetry_tables` turns that document into titled row tables --
the probes' segment-lifecycle stage counts (in :data:`STAGE_ORDER`), drop
reasons, startup funnel and swarm health (probed runs only), the per-span
timing profile, the per-shard spans and the counters.  Both views render
that one list: ``repro explain`` as fixed-width text
(:func:`explain_document`) and the report's "Run telemetry" section as
HTML, so the two cannot disagree.  It loads no NumPy and no simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.metrics.report import format_table
from repro.obs.probes import FUNNEL_MILESTONES

__all__ = ["STAGE_ORDER", "Table", "explain_document", "overflow_warning", "run_label",
           "telemetry_tables"]

#: Lifecycle stages in the order one period emits them: the decide phase's
#: three, the exchange loop's drops, the deliveries after it, then playback.
STAGE_ORDER = ("requested", "assigned", "scheduled", "dropped", "delivered",
               "played", "missed_deadline")

#: The funnel table's columns: each milestone's count and mean time since join
#: (after the ``session`` column of a multi-session document).
_FUNNEL_COLUMNS = ("session", "label", "joined",
                   *(column for milestone in FUNNEL_MILESTONES[1:]
                     for column in (milestone, f"{milestone}_mean_s")))

#: The swarm-health table's columns after ``t_sim``: printed name -> series field.
_HEALTH_COLUMNS = {"peers": "peers", "fill_p50": "fill_p50", "fill_p90": "fill_p90",
                   "pending": "pending", "util": "utilisation", "requests": "requests",
                   "failed": "failed", "delivered": "delivered"}


#: Ordinal suffixes by last digit (11th-13th aside).
_SUFFIX = {1: "st", 2: "nd", 3: "rd"}


class Table(NamedTuple):
    """One titled table of a telemetry document.

    ``bars`` names the column the report also draws as a bar chart, one bar
    per row labelled by the row's first column.
    """

    title: str
    rows: List[Dict[str, Any]]
    bars: Optional[str] = None


def _health_tables(series: Sequence[Mapping[str, Any]]) -> List[Table]:
    """Every ⌊n/12⌋th of a session's n health rows; one table per session."""
    sessions: Dict[Optional[int], List[Mapping[str, Any]]] = {}
    for row in series:
        sessions.setdefault(row.get("session"), []).append(row)
    tables = []
    for session, rows in sessions.items():
        step = max(1, len(rows) // 12)
        nth = f"{step}{'th' if 10 <= step % 100 <= 20 else _SUFFIX.get(step % 10, 'th')}"
        label = rows[0]["label"]
        whose = ("" if session is None
                 else f" of session {session}" + (f", {label}" if label else ""))
        tables.append(Table(
            f"swarm health{whose} (every {nth} period)",
            [{"t_sim": f"{row['time']:.1f}",
              **{name: row[field] for name, field in _HEALTH_COLUMNS.items()}}
             for row in rows[::step]],
        ))
    return tables


def _probe_tables(probes: Mapping[str, Any]) -> List[Table]:
    lifecycle = probes["lifecycle"]
    stages: Dict[str, int] = lifecycle["stages"]
    tables = [Table("segment lifecycle", [
        {"stage": stage, "events": stages[stage]} for stage in STAGE_ORDER if stage in stages
    ])]
    drops: Dict[str, int] = lifecycle["drop_reasons"]
    if drops:
        tables.append(Table("drop reasons", [
            {"reason": reason, "drops": count} for reason, count in drops.items()
        ]))
    tables.append(Table("startup funnel", [
        {column: row[column] for column in _FUNNEL_COLUMNS if column in row}
        for row in probes["funnel"]["rows"]
    ]))
    return tables + _health_tables(probes["health"]["series"])


def telemetry_tables(document: Mapping[str, Any]) -> List[Table]:
    """The titled tables of one telemetry document, in reading order."""
    probes = document.get("probes", {})
    tables = _probe_tables(probes) if probes.get("enabled") else []
    tables.append(Table("spans", [
        {"span": name, "count": stat["count"], "total_s": round(stat["total_s"], 4),
         "mean_ms": round(stat["mean_s"] * 1e3, 3), "p95_ms": round(stat["p95_s"] * 1e3, 3)}
        for name, stat in document.get("spans", {}).items()
    ], bars="total_s"))
    shards = document.get("shards", [])
    if shards:
        tables.append(Table("shards", [
            {"shard": row["shard"], "worker": row["worker"], "label": row["label"],
             "duration_s": row["duration_s"]} for row in shards
        ], bars="duration_s"))
    tables.append(Table("counters", [
        {"counter": name, "value": value} for name, value in document.get("counters", {}).items()
    ]))
    return tables


def run_label(run: Mapping[str, Any]) -> str:
    """A document's run identity as ``field=value`` pairs in field order, ``kind`` aside."""
    return ", ".join(f"{field}={run[field]}" for field in sorted(run) if field != "kind")


def explain_document(key: str, document: Mapping[str, Any]) -> str:
    """The tables of one telemetry document, under a line naming its run."""
    run = document.get("run", {})
    lines = [f"{key}: {run.get('kind', 'run')} {run_label(run)}"]
    for table in telemetry_tables(document):
        lines += ["", f"{table.title}:", format_table(table.rows)]
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
