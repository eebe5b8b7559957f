"""What a figure is: its data (:class:`FigureResult`) and its table row
(:class:`FigureSpec`).

A leaf module on the standard library: the builders in
:mod:`repro.figures.paper`, :mod:`repro.figures.universe` and
:mod:`repro.figures.probes` return results and list their rows from
here, and :mod:`repro.figures.registry` joins their rows into the one
figure table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.metrics.report import format_table

__all__ = ["FigureResult", "FigureSpec", "FigureUnavailable"]


@dataclass
class FigureResult:
    """The regenerated data behind one figure.

    Attributes
    ----------
    figure_id:
        Paper figure number (e.g. ``"5"``), a short slug otherwise.
    title:
        Short description of what the figure shows.
    rows:
        Tabular data (one dict per row) -- what the benchmark prints.
    series:
        Named ``(x, y)`` series, matching the curves/bars of the figure.
    notes:
        Free-form notes (e.g. which scale the data was generated at).
    meta:
        Generation parameters (sizes, seed, dynamic flag, ...).
    """

    figure_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        """Human-readable rendering (title, metadata, table)."""
        lines = [f"Figure {self.figure_id}: {self.title}"]
        if self.meta:
            meta = ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            lines.append(f"  [{meta}]")
        if self.notes:
            lines.append(f"  {self.notes}")
        lines.append(format_table(self.rows))
        return "\n".join(lines)


@dataclass(frozen=True)
class FigureSpec:
    """One row of the figure table.

    Attributes
    ----------
    name:
        Stable table key (e.g. ``"fig7-switch-static"``).
    title:
        Human-readable one-liner, shown in the report index.
    builder:
        Callable producing a :class:`FigureResult`; its keyword parameters
        are the ones :func:`~repro.figures.registry.render_figure` hands it.
    figure_id:
        Paper figure number for paper figures, a short slug otherwise.
    description:
        What the figure shows and where its data comes from.
    """

    name: str
    title: str
    builder: Callable[..., FigureResult]
    figure_id: str
    description: str = ""


class FigureUnavailable(RuntimeError):
    """A figure cannot render from the data it was given.

    Raised by the store-backed figures when the store holds no usable
    document; the report renderer treats it as "skip this figure", not as
    an error.
    """
