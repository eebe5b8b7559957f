"""Render a whole results store into a self-contained HTML report.

``repro report`` walks the figure table
(:data:`repro.figures.registry.FIGURES`), renders every figure it can
from the given store, and writes:

* ``<out>/report.html`` -- one self-contained page (inline CSS, inline
  SVG charts, no external assets): a figure index, one section per
  rendered figure with its chart and data table, the telemetry and probe
  sections of instrumented runs, and a store inventory;
* ``<out>/data/<name>.json`` -- each rendered figure's data as
  sorted-key JSON, the machine-readable companion the CI smoke job (and
  the determinism tests) diff.

Figures that cannot render -- universe figures over a store with no
universe documents, simulation figures against a replay-only store
missing their keys -- are *skipped* and listed with their reason, never
fatal.  Rendering from a warm store replays everything from disk, so the
same store always produces byte-identical output (no timestamps are
embedded anywhere).
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.charts import svg_bar_chart, svg_line_chart
from repro.experiments.store import BaseResultStore, MissingResultError
from repro.figures.registry import FIGURES, render_figure
from repro.figures.spec import FigureResult, FigureUnavailable

__all__ = ["ReportSummary", "render_report"]


@dataclass
class ReportSummary:
    """What :func:`render_report` produced (what ``repro report`` prints)."""

    out_dir: Path
    html_path: Path
    rendered: List[str] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)
    data_files: List[Path] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for ``repro report --json``."""
        return {
            "out_dir": str(self.out_dir),
            "html": str(self.html_path),
            "rendered": list(self.rendered),
            "skipped": dict(self.skipped),
            "data_files": [str(path) for path in self.data_files],
        }


def render_report(
    store: BaseResultStore,
    out_dir: "str | Path",
    *,
    title: str = "Reproduction report",
    seed: int = 0,
    sizes: Optional[Sequence[int]] = None,
    n_nodes: Optional[int] = None,
    repetitions: int = 1,
    workers: int = 1,
    universe: Optional[str] = None,
) -> ReportSummary:
    """Render every figure of the table from ``store`` into ``out_dir``.

    One uniform parameter set feeds the whole table;
    :func:`~repro.figures.registry.render_figure` routes each figure the
    subset its builder names.  ``sizes``/``n_nodes`` left as ``None`` means
    the figure generators' own defaults (CI passes the miniature scales).
    """
    out = Path(out_dir)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    kwargs: Dict[str, Any] = {
        "store": store,
        "seed": seed,
        "sizes": None if sizes is None else [int(s) for s in sizes],
        "n_nodes": n_nodes,
        "repetitions": repetitions,
        "workers": workers,
        "universe": universe,
    }
    summary = ReportSummary(out_dir=out, html_path=out / "report.html")
    figures: List[Tuple[str, FigureResult]] = []
    for name in FIGURES:
        try:
            figures.append((name, render_figure(name, **kwargs)))
        except (FigureUnavailable, MissingResultError) as exc:
            summary.skipped[name] = str(exc)
            continue
        summary.rendered.append(name)

    for name, figure in figures:
        data_path = data_dir / f"{name}.json"
        payload = {
            "name": name,
            "figure_id": figure.figure_id,
            "title": figure.title,
            "rows": figure.rows,
            "series": {key: list(map(list, val)) for key, val in figure.series.items()},
            "notes": figure.notes,
            "meta": figure.meta,
        }
        data_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
        summary.data_files.append(data_path)

    document = _render_html(
        title=title,
        figures=figures,
        skipped=summary.skipped,
        store=store,
    )
    with summary.html_path.open("w", encoding="utf-8") as handle:
        handle.write(document)
    return summary


# --------------------------------------------------------------------------- #
# HTML assembly
# --------------------------------------------------------------------------- #
_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 64em;
       color: #222; line-height: 1.45; }
h1 { border-bottom: 2px solid #0072b2; padding-bottom: 0.2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #ccc; padding-bottom: 0.15em; }
table { border-collapse: collapse; margin: 0.8em 0; font-size: 0.9em; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: right; }
th { background: #eef3f7; }
td:first-child, th:first-child { text-align: left; }
.meta { color: #666; font-size: 0.85em; }
.skipped { color: #884400; }
.figure-block { margin-bottom: 2.5em; }
"""


def _format_cell(value: Any) -> str:
    """One table cell: floats at a readable fixed precision, rest verbatim."""
    if isinstance(value, bool) or value is None:
        return html.escape(str(value))
    if isinstance(value, float):
        return f"{value:.4g}"
    return html.escape(str(value))


def _html_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Rows of dicts to an HTML table (columns in first-seen order)."""
    if not rows:
        return "<p class=\"meta\">(no rows)</p>"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{html.escape(str(col))}</th>" for col in columns)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(f"<td>{_format_cell(row.get(col, ''))}</td>" for col in columns)
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _figure_chart(figure: FigureResult) -> str:
    """The figure's inline SVG: line chart for curves, bars for single points."""
    series = {name: list(values) for name, values in figure.series.items() if values}
    if not series:
        return ""
    if max(len(values) for values in series.values()) > 1:
        return svg_line_chart(series, title=figure.title)
    bars = [(name, float(values[0][1])) for name, values in series.items()]
    return svg_bar_chart(bars, title=figure.title)


def _telemetry_section(store: BaseResultStore) -> List[str]:
    """The "Run telemetry" section: one block per ``telemetry-*`` document.

    Each block shows the run's period-phase timing profile (span
    durations, bar chart + table), its per-shard execution spans when the
    run went through the sharded runtime, and the counter snapshot.
    Stores without telemetry documents render nothing -- the section only
    appears for instrumented runs (``--telemetry``).
    """
    documents = store.documents("telemetry")
    if not documents:
        return []
    parts = ["<h2>Run telemetry</h2>"]
    for key, document in documents:
        run = document.get("run", {})
        label = ", ".join(
            f"{field}={run[field]}" for field in sorted(run) if field != "kind"
        ) or key
        parts.append('<div class="figure-block">')
        parts.append(f"<h3>{html.escape(str(run.get('kind', 'run')))}: "
                     f"{html.escape(label)}</h3>")
        spans = document.get("spans", {})
        if spans:
            bars = [
                (name, float(stat.get("total_s", 0.0)))
                for name, stat in sorted(spans.items())
            ]
            parts.append(svg_bar_chart(bars, title="Span time (total seconds)"))
            parts.append(_html_table([
                {
                    "span": name,
                    "count": stat.get("count", 0),
                    "total_s": stat.get("total_s", 0.0),
                    "mean_s": stat.get("mean_s", 0.0),
                    "p95_s": stat.get("p95_s", 0.0),
                }
                for name, stat in sorted(spans.items())
            ]))
        shards = document.get("shards", [])
        if shards:
            parts.append("<h4>Per-shard execution</h4>")
            bars = [
                (f"shard {row.get('shard')} (w{row.get('worker')})",
                 float(row.get("duration_s", 0.0)))
                for row in shards
            ]
            parts.append(svg_bar_chart(bars, title="Shard wall time (seconds)"))
            parts.append(_html_table(shards))
        counters = document.get("counters", {})
        if counters:
            parts.append(_html_table([
                {"counter": name, "value": value}
                for name, value in sorted(counters.items())
            ]))
        trace = document.get("trace", {})
        parts.append(
            f'<p class="meta">trace events: {int(trace.get("events", 0))}'
            f' (dropped {int(trace.get("dropped", 0))})</p>'
        )
        parts.append("</div>")
    return parts


def _probe_section(store: BaseResultStore) -> List[str]:
    """The "Protocol health" section: one block per probe-bearing document.

    Complements the probe *figures* (swarm-health timeline, startup
    funnel) with the numbers behind them: the lifecycle stage/drop-reason
    tallies, the run-level buffer-fill distribution and the funnel table.
    Only ``--probes`` runs produce the data; plain ``--telemetry``
    documents (probes disabled) render nothing here.
    """
    blocks: List[str] = []
    for key, document in store.documents("telemetry"):
        probes = document.get("probes")
        if not isinstance(probes, dict) or not probes.get("enabled"):
            continue
        run = document.get("run", {})
        label = ", ".join(
            f"{field}={run[field]}" for field in sorted(run) if field != "kind"
        ) or key
        blocks.append('<div class="figure-block">')
        blocks.append(f"<h3>{html.escape(str(run.get('kind', 'run')))}: "
                      f"{html.escape(label)}</h3>")
        lifecycle = probes.get("lifecycle", {})
        stages = lifecycle.get("stages", {})
        if stages:
            blocks.append("<h4>Segment lifecycle</h4>")
            blocks.append(_html_table([
                {"stage": name, "events": count}
                for name, count in sorted(stages.items())
            ]))
        drops = lifecycle.get("drop_reasons", {})
        if drops:
            blocks.append(_html_table([
                {"drop reason": name, "events": count}
                for name, count in sorted(drops.items())
            ]))
        health = probes.get("health", {})
        fill = health.get("buffer_fill", {})
        if fill.get("count"):
            blocks.append(
                '<p class="meta">buffer fill over '
                f'{int(health.get("periods", 0))} periods: '
                f'mean {fill.get("mean", 0)}, p10 {fill.get("p10", 0)}, '
                f'p50 {fill.get("p50", 0)}, p90 {fill.get("p90", 0)}</p>'
            )
        funnel = probes.get("funnel", {})
        if funnel.get("rows"):
            blocks.append("<h4>Startup funnel</h4>")
            blocks.append(_html_table(funnel["rows"]))
        if lifecycle.get("dropped"):
            blocks.append(
                f'<p class="meta">lifecycle buffer overflowed: '
                f'{int(lifecycle["dropped"])} events dropped</p>'
            )
        blocks.append("</div>")
    if not blocks:
        return []
    return ["<h2>Protocol health</h2>"] + blocks


def _render_html(
    *,
    title: str,
    figures: List[Tuple[str, FigureResult]],
    skipped: Dict[str, str],
    store: BaseResultStore,
) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\"/>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]

    # -- figure index ------------------------------------------------------ #
    parts.append("<h2>Figures</h2><ul>")
    for name, figure in figures:
        parts.append(
            f'<li><a href="#{html.escape(name)}">{html.escape(name)}</a> '
            f"&mdash; {html.escape(figure.title)}</li>"
        )
    for name in skipped:
        parts.append(
            f'<li class="skipped">{html.escape(name)} &mdash; '
            f"{html.escape(FIGURES[name].title)} (skipped)</li>"
        )
    parts.append("</ul>")

    # -- one section per figure -------------------------------------------- #
    for name, figure in figures:
        parts.append(f'<div class="figure-block" id="{html.escape(name)}">')
        parts.append(
            f"<h2>{html.escape(name)}: {html.escape(figure.title)}</h2>"
        )
        description = FIGURES[name].description
        if description:
            parts.append(f"<p>{html.escape(description)}</p>")
        if figure.meta:
            meta = ", ".join(f"{k}={v}" for k, v in sorted(figure.meta.items()))
            parts.append(f'<p class="meta">{html.escape(meta)}</p>')
        chart = _figure_chart(figure)
        if chart:
            parts.append(chart)
        parts.append(_html_table(figure.rows))
        if figure.notes:
            parts.append(f'<p class="meta">{html.escape(figure.notes)}</p>')
        parts.append("</div>")

    # -- run telemetry ------------------------------------------------------ #
    parts.extend(_telemetry_section(store))

    # -- protocol health (probe-bearing runs only) --------------------------- #
    parts.extend(_probe_section(store))

    # -- skipped figures, with reasons -------------------------------------- #
    if skipped:
        parts.append("<h2>Skipped figures</h2><ul>")
        for name, reason in skipped.items():
            parts.append(
                f'<li class="skipped"><b>{html.escape(name)}</b>: '
                f"{html.escape(reason)}</li>"
            )
        parts.append("</ul>")

    # -- store inventory (counts only: no timestamps, keeps output stable) -- #
    counts: Dict[str, int] = {}
    for entry in store.entries():
        counts[entry.kind] = counts.get(entry.kind, 0) + 1
    parts.append("<h2>Store inventory</h2>")
    parts.append(
        _html_table(
            [{"kind": kind, "documents": counts[kind]} for kind in sorted(counts)]
        )
    )
    parts.append("</body></html>")
    return "\n".join(parts)
