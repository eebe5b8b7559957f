"""Result analysis utilities.

Small, dependency-light helpers used by the experiment harness, the CLI and
the examples:

* :mod:`repro.analysis.charts` -- plain-text (ASCII) line and bar charts
  used to render the paper's figures in a terminal without matplotlib, and
  their SVG twins for the HTML report.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "ascii_line_chart": "repro.analysis.charts",
})
