"""Result comparison, plain-text tables and metric serialisation.

The benchmark harness prints, for every figure it regenerates, the same
rows/series the paper reports.  This module provides the small amount of
shared formatting machinery: pairwise comparison of a fast-switch run with
a normal-switch run (reduction ratio, Figure 7/11) and fixed-width text
tables.  It also owns the JSON-friendly (de)serialisation of
:class:`~repro.metrics.collectors.SwitchMetrics`, used by the persistent
result store (:mod:`repro.experiments.store`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.metrics.collectors import PeerOutcome, RoundSample, SwitchMetrics

__all__ = [
    "mean_of",
    "reduction_ratio",
    "ComparisonRow",
    "compare_metrics",
    "format_table",
    "metrics_to_dict",
    "metrics_from_dict",
]


def mean_of(values: Sequence[float]) -> float:
    """Plain mean of a sequence; 0.0 when empty (tables over zero reps)."""
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def reduction_ratio(normal_value: float, fast_value: float) -> float:
    """Relative reduction of ``fast_value`` versus ``normal_value``.

    The paper's metric 2: ``(normal - fast) / normal``.  Zero when the
    baseline value is not positive (nothing to reduce).
    """
    if normal_value <= 0:
        return 0.0
    return (normal_value - fast_value) / normal_value


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a fast-vs-normal comparison table (one network size)."""

    label: str
    n_peers: int
    normal_finish_old: float
    fast_finish_old: float
    fast_prepare_new: float
    normal_prepare_new: float
    switch_time_reduction: float
    normal_overhead: float
    fast_overhead: float

    def as_dict(self) -> Mapping[str, float | int | str]:
        """Dictionary form (used by the CLI's machine-readable output)."""
        return {
            "label": self.label,
            "n_peers": self.n_peers,
            "normal_finish_old": self.normal_finish_old,
            "fast_finish_old": self.fast_finish_old,
            "fast_prepare_new": self.fast_prepare_new,
            "normal_prepare_new": self.normal_prepare_new,
            "switch_time_reduction": self.switch_time_reduction,
            "normal_overhead": self.normal_overhead,
            "fast_overhead": self.fast_overhead,
        }


def compare_metrics(
    label: str,
    normal: SwitchMetrics,
    fast: SwitchMetrics,
) -> ComparisonRow:
    """Build a comparison row from one normal-switch and one fast-switch run."""
    return ComparisonRow(
        label=label,
        n_peers=normal.n_peers,
        normal_finish_old=normal.avg_finish_old,
        fast_finish_old=fast.avg_finish_old,
        fast_prepare_new=fast.avg_prepare_new,
        normal_prepare_new=normal.avg_prepare_new,
        switch_time_reduction=reduction_ratio(normal.avg_switch_time, fast.avg_switch_time),
        normal_overhead=normal.overhead_ratio,
        fast_overhead=fast.overhead_ratio,
    )


def metrics_to_dict(metrics: SwitchMetrics) -> Dict[str, Any]:
    """JSON-friendly dictionary form of a :class:`SwitchMetrics` summary.

    The nested :class:`RoundSample` and :class:`PeerOutcome` records become
    plain dictionaries; :func:`metrics_from_dict` restores the exact
    original (floats round-trip bit-identically through ``json``).
    """
    return asdict(metrics)


def metrics_from_dict(payload: Mapping[str, Any]) -> SwitchMetrics:
    """Rebuild a :class:`SwitchMetrics` from :func:`metrics_to_dict` output."""
    data = dict(payload)
    data["rounds"] = [RoundSample(**dict(sample)) for sample in data.get("rounds", [])]
    data["outcomes"] = [PeerOutcome(**dict(outcome)) for outcome in data.get("outcomes", [])]
    return SwitchMetrics(**data)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of mappings as a fixed-width text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
