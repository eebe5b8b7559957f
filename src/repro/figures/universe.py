"""Universe-scale figures rendered purely from persisted sketch aggregates.

These figures read the ``aggregates`` block that every freshly simulated
universe repetition stores *next to* its raw outcome table (see
:mod:`repro.channels.aggregates`): per algorithm a
:class:`~repro.metrics.sketch.QuantileSketch` plus a
:class:`~repro.metrics.sketch.StreamAccumulator` over all pooled per-peer
zap-time samples, and the same pair per popularity decile.  They never
touch ``document["rep"]`` -- the raw per-peer outcome data -- which the
registry tests pin by poisoning that key and rendering anyway.  Cost is
therefore O(channels x percentiles) regardless of viewer count: a
million-viewer universe renders from a few kilobytes of sketch state.

Repetition blocks merge in ascending seed order (the canonical order --
merging compressed sketches is order-sensitive), and multiple universes
in one store each contribute their own rows, tagged by universe name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.channels.aggregates import AlgorithmAggregate, merge_rep_aggregates
from repro.experiments.store import BaseResultStore
from repro.figures.spec import FigureResult, FigureSpec, FigureUnavailable

__all__ = [
    "universe_deciles",
    "universe_percentiles",
    "universe_summary",
    "UNIVERSE_FIGURES",
]

#: The percentile grid of the percentile-curve figure.
PERCENTILE_GRID = (1, 5, 10, 25, 50, 75, 90, 95, 99)

#: The two paired algorithms every universe document carries.
_ALGORITHMS = ("normal", "fast")


def _universe_documents(
    store: Optional[BaseResultStore], universe: Optional[str] = None
) -> List[Dict[str, Any]]:
    """All usable universe documents, sorted by ``(universe, seed, key)``.

    Usable means: a ``universe`` document with an
    ``aggregates`` block.  Documents predating the aggregate block are
    counted so the error message can say "re-run to upgrade" rather than
    "no data".  Only the document's identity fields and its ``aggregates``
    block are ever read -- never ``document["rep"]``.
    """
    if store is None:
        raise FigureUnavailable(
            "universe figures need a results store; pass store=... "
            "(e.g. --results-dir on the CLI)"
        )
    usable: List[Tuple[str, int, str, Dict[str, Any]]] = []
    legacy = 0
    for key, document in store.documents("universe"):
        name = str(document.get("universe", ""))
        if universe is not None and name != universe:
            continue
        if "aggregates" not in document:
            legacy += 1
            continue
        usable.append((name, int(document.get("seed", 0)), key, document))
    if not usable:
        if legacy:
            raise FigureUnavailable(
                f"found {legacy} universe document(s) without an aggregates "
                "block (written by an older version); re-run the universe "
                "to regenerate them"
            )
        scope = f" for universe {universe!r}" if universe else ""
        raise FigureUnavailable(
            f"the store holds no universe documents{scope}; "
            "run `repro universe run <name>` first"
        )
    usable.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in usable]


def _merged_by_universe(
    documents: List[Dict[str, Any]],
) -> List[Tuple[str, Dict[str, Any], Dict[str, AlgorithmAggregate]]]:
    """Per universe: its name, a representative document and merged aggregates."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for document in documents:
        grouped.setdefault(str(document.get("universe", "")), []).append(document)
    merged: List[Tuple[str, Dict[str, Any], Dict[str, AlgorithmAggregate]]] = []
    for name in sorted(grouped):
        docs = grouped[name]
        merged.append(
            (name, docs[0], merge_rep_aggregates([d["aggregates"] for d in docs]))
        )
    return merged


def _tag(rows: List[Dict[str, object]], name: str, multiple: bool) -> None:
    """Prefix each row with the universe name when several are present."""
    if multiple:
        for row in rows:
            row_items = list(row.items())
            row.clear()
            row["universe"] = name
            row.update(row_items)


def universe_deciles(
    *,
    store: Optional[BaseResultStore] = None,
    universe: Optional[str] = None,
) -> FigureResult:
    """Per-popularity-decile zap times, reconstructed from decile sketches."""
    documents = _universe_documents(store, universe)
    merged = _merged_by_universe(documents)
    rows: List[Dict[str, object]] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    for name, _doc, algorithms in merged:
        normal = algorithms.get("normal")
        fast = algorithms.get("fast")
        if normal is None or fast is None:
            continue
        suffix = f" ({name})" if len(merged) > 1 else ""
        local: List[Dict[str, object]] = []
        for decile in sorted(set(normal.deciles) | set(fast.deciles)):
            n = normal.deciles.get(decile)
            f = fast.deciles.get(decile)
            if n is None or f is None or n.stats.count == 0:
                continue
            reduction = (
                1.0 - f.stats.mean / n.stats.mean if n.stats.mean > 0 else 0.0
            )
            local.append({
                "decile": decile,
                "viewers": n.stats.count,
                "normal_zap_time": n.stats.mean,
                "fast_zap_time": f.stats.mean,
                "fast_p90": f.sketch.percentile(90.0),
                "reduction": reduction,
            })
        _tag(local, name, len(merged) > 1)
        rows.extend(local)
        series[f"normal{suffix}"] = [
            (float(r["decile"]), float(r["normal_zap_time"])) for r in local
        ]
        series[f"fast{suffix}"] = [
            (float(r["decile"]), float(r["fast_zap_time"])) for r in local
        ]
    return FigureResult(
        figure_id="U-deciles",
        title="Zap time by channel-popularity decile (sketch aggregates)",
        rows=rows,
        series=series,
        notes="Reconstructed from per-decile quantile sketches; "
              "raw per-peer outcomes were never read.",
        meta=_meta(documents, universe),
    )


def universe_percentiles(
    *,
    store: Optional[BaseResultStore] = None,
    universe: Optional[str] = None,
) -> FigureResult:
    """Zap-time percentile curves per algorithm, from the pooled sketches."""
    documents = _universe_documents(store, universe)
    merged = _merged_by_universe(documents)
    rows: List[Dict[str, object]] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    for name, _doc, algorithms in merged:
        suffix = f" ({name})" if len(merged) > 1 else ""
        curves = {
            algorithm: aggregate.sketch.percentiles(PERCENTILE_GRID)
            for algorithm in _ALGORITHMS
            if (aggregate := algorithms.get(algorithm)) is not None and aggregate.sketch.count
        }
        local: List[Dict[str, object]] = [
            {"percentile": q, **{algorithm: curve[i] for algorithm, curve in curves.items()}}
            for i, q in enumerate(PERCENTILE_GRID)
        ]
        for algorithm, curve in curves.items():
            series[f"{algorithm}{suffix}"] = [
                (float(q), value) for q, value in zip(PERCENTILE_GRID, curve)
            ]
        _tag(local, name, len(merged) > 1)
        rows.extend(local)
    return FigureResult(
        figure_id="U-percentiles",
        title="Zap-time percentile curves (sketch aggregates)",
        rows=rows,
        series=series,
        notes="Percentiles interpolated from the pooled quantile sketches; "
              "exact up to the sketch capacity, bounded-error beyond it.",
        meta=_meta(documents, universe),
    )


def universe_summary(
    *,
    store: Optional[BaseResultStore] = None,
    universe: Optional[str] = None,
) -> FigureResult:
    """One summary row per universe: counts, means, tail percentiles."""
    documents = _universe_documents(store, universe)
    merged = _merged_by_universe(documents)
    rows: List[Dict[str, object]] = []
    for name, doc, algorithms in merged:
        normal = algorithms.get("normal")
        fast = algorithms.get("fast")
        if normal is None or fast is None:
            continue
        reps = sum(1 for d in documents if str(d.get("universe", "")) == name)
        reduction = (
            1.0 - fast.stats.mean / normal.stats.mean
            if normal.stats.mean > 0
            else 0.0
        )
        rows.append({
            "universe": name,
            "channels": int(doc.get("n_channels", 0)),
            "viewers": int(doc.get("n_viewers", 0)),
            "reps": reps,
            "samples": normal.stats.count,
            "normal_mean": normal.stats.mean,
            "fast_mean": fast.stats.mean,
            "normal_p50": normal.sketch.percentile(50.0),
            "fast_p50": fast.sketch.percentile(50.0),
            "normal_p90": normal.sketch.percentile(90.0),
            "fast_p90": fast.sketch.percentile(90.0),
            "normal_p99": normal.sketch.percentile(99.0),
            "fast_p99": fast.sketch.percentile(99.0),
            "reduction": reduction,
            "unfinished": normal.unfinished + fast.unfinished,
        })
    series = {
        "reduction": [
            (float(i), float(row["reduction"])) for i, row in enumerate(rows)
        ]
    }
    return FigureResult(
        figure_id="U-summary",
        title="Universe summary (sketch aggregates)",
        rows=rows,
        series=series,
        notes="One row per stored universe; all statistics come from the "
              "merged streaming aggregates.",
        meta=_meta(documents, universe),
    )


def _meta(
    documents: List[Dict[str, Any]], universe: Optional[str]
) -> Dict[str, object]:
    """Shared meta block: what was read, never when (keeps reports stable)."""
    names = sorted({str(d.get("universe", "")) for d in documents})
    meta: Dict[str, object] = {
        "documents": len(documents),
        "universes": ",".join(names),
        "source": "sketch-aggregates",
    }
    if universe is not None:
        meta["filter"] = universe
    return meta


#: The sketch-backed figures in report order: (name, title, builder, slug,
#: description).
UNIVERSE_FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec("universe-deciles", "Zap time by channel-popularity decile",
               universe_deciles, "U-deciles",
               "Per-decile normal/fast zap-time means, fast p90 and reduction, read "
               "purely from persisted decile sketches."),
    FigureSpec("universe-percentiles", "Zap-time percentile curves",
               universe_percentiles, "U-percentiles",
               "Normal/fast zap-time percentile curves from the pooled quantile sketches."),
    FigureSpec("universe-summary", "Universe summary", universe_summary, "U-summary",
               "One row per stored universe: sample counts, means, tail percentiles and "
               "the fast-switch reduction."),
)
