"""Result analysis utilities.

Small, dependency-light helpers used by the experiment harness, the CLI and
the examples:

* :mod:`repro.analysis.stats` -- summary statistics for repeated runs
  (mean, standard deviation, confidence intervals) and paired comparison of
  two algorithms across seeds (mean reduction with a sign test), so sweep
  results can be reported with error bars instead of single draws;
* :mod:`repro.analysis.charts` -- plain-text (ASCII) line and bar charts
  used to render the paper's figures in a terminal without matplotlib, and
  their SVG twins for the HTML report.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "SummaryStats": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "PairedComparison": "repro.analysis.stats",
    "paired_comparison": "repro.analysis.stats",
    "ascii_line_chart": "repro.analysis.charts",
})
