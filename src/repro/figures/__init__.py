"""The one figure table and the store-backed HTML report.

:data:`FIGURES` (:mod:`repro.figures.registry`) holds the nine classic
paper figures (:mod:`repro.figures.paper`), the universe-scale
sketch-backed figures (:mod:`repro.figures.universe`) and the
probe-backed figures (:mod:`repro.figures.probes`).  Render any of them
by name with :func:`render_figure`, a paper figure by number with
:func:`generate_figure`, or the whole table into one HTML report with
:func:`render_report` (the ``repro report`` command).
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "FIGURES": "repro.figures.registry",
    "get_figure": "repro.figures.registry",
    "render_figure": "repro.figures.registry",
    "generate_figure": "repro.figures.registry",
    "FigureResult": "repro.figures.spec",
    "FigureSpec": "repro.figures.spec",
    "FigureUnavailable": "repro.figures.spec",
    "figure2": "repro.figures.paper",
    "ReportSummary": "repro.figures.report",
    "render_report": "repro.figures.report",
})
