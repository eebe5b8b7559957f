"""The one figure table: names to :class:`~repro.figures.spec.FigureSpec` rows.

:data:`FIGURES` is the literal concatenation of the three families' rows --
the paper figures (:mod:`repro.figures.paper`), the universe-scale
sketch-backed figures (:mod:`repro.figures.universe`) and the probe-backed
figures (:mod:`repro.figures.probes`) -- in report order.  Callers render
by name through :func:`render_figure`, which hands a builder the keywords
its signature names out of the caller's uniform set; the report renderer
(:mod:`repro.figures.report`) iterates the table without knowing any
figure individually, and :func:`generate_figure` is the by-number door.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Union

from repro.figures.paper import PAPER_FIGURES
from repro.figures.probes import PROBE_FIGURES
from repro.figures.spec import FigureResult, FigureSpec
from repro.figures.universe import UNIVERSE_FIGURES

__all__ = ["FIGURES", "get_figure", "render_figure", "generate_figure"]

#: The figure table; its order is the report's presentation order.
FIGURES: Dict[str, FigureSpec] = {
    spec.name: spec for spec in (*PAPER_FIGURES, *UNIVERSE_FIGURES, *PROBE_FIGURES)
}


def get_figure(name: str) -> FigureSpec:
    """Look up one spec; unknown names raise ``KeyError`` with guidance."""
    spec = FIGURES.get(name)
    if spec is None:
        raise KeyError(f"unknown figure {name!r}; figures: {', '.join(sorted(FIGURES))}")
    return spec


def render_figure(name: str, **kwargs: Any) -> FigureResult:
    """Render one figure of the table.

    ``kwargs`` may carry parameters for *any* figure (the report passes
    one uniform set to every spec); only the keys the builder's signature
    names reach it, and ``None`` values are dropped so the builder's own
    defaults apply.
    """
    spec = get_figure(name)
    accepted = inspect.signature(spec.builder).parameters
    return spec.builder(**{
        key: value for key, value in kwargs.items() if key in accepted and value is not None
    })


def generate_figure(figure: Union[int, str], **kwargs: Any) -> FigureResult:
    """Regenerate a paper figure by number.

    The number is looked up in :data:`FIGURES` by ``figure_id`` and
    rendered with :func:`render_figure`: of ``kwargs`` (e.g.
    ``sizes=...``, ``seed=...``, ``paper_scale=True``) the figure takes the
    ones its builder names.
    """
    by_number = {spec.figure_id: spec.name for spec in FIGURES.values()}
    if str(figure) not in by_number:
        raise KeyError(f"unknown figure {figure!r}; available: {list(by_number)}")
    return render_figure(by_number[str(figure)], **kwargs)
