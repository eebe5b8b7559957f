"""Metrics: collectors, overhead accounting and result reports.

The paper's evaluation (Section 5.2) uses three primary metrics and three
supplementary ones; all are implemented here:

Primary
    1. *Average preparing time of the new source* (= average switch time):
       mean time for all nodes to gather the ``Qs`` startup segments of the
       new source.
    2. *Reduction ratio*: relative reduction of the average switch time of
       the fast algorithm versus the normal algorithm.
    3. *Communication overhead*: buffer-map exchange bits divided by
       delivered data bits.

Supplementary
    * *Undelivered ratio of the old source* ``Q1/Q0`` over time,
    * *Delivered ratio of the new source* ``(Qs - Q2)/Qs`` over time,
    * *Average finishing time of the old source* ``T1'``.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "MetricsCollector": "repro.metrics.collectors",
    "PeerOutcome": "repro.metrics.collectors",
    "RoundSample": "repro.metrics.collectors",
    "SwitchMetrics": "repro.metrics.collectors",
    "SwitchTimeStats": "repro.metrics.collectors",
    "completion_times": "repro.metrics.collectors",
    "switch_time_stats": "repro.metrics.collectors",
    "OverheadAccountant": "repro.metrics.overhead",
    "PhaseQoE": "repro.metrics.qoe",
    "ClassSwitchStats": "repro.metrics.qoe",
    "phase_qoe": "repro.metrics.qoe",
    "per_class_switch_stats": "repro.metrics.qoe",
    "continuity_index": "repro.metrics.qoe",
    "ComparisonRow": "repro.metrics.report",
    "compare_metrics": "repro.metrics.report",
    "format_table": "repro.metrics.report",
    "reduction_ratio": "repro.metrics.report",
    "decile_of": "repro.metrics.universe",
    "weighted_mean": "repro.metrics.universe",
})
