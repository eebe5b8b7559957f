"""Per-network-region switch-time breakdown.

The network layer (:mod:`repro.net`) places every peer in a named region;
this module rolls the per-peer switch outcomes up by region, the way
:mod:`repro.metrics.qoe` rolls them up by bandwidth class, through the one
switch-time summary (:func:`~repro.metrics.collectors.switch_time_stats`):

* :func:`region_comparison_rows` -- the paired fast-vs-normal per-region
  table behind ``repro compare --topology ...`` (mean switch time of each
  algorithm per region plus the reduction ratio);
* :func:`fabric_stats_rows` -- a run's fabric counters as printable rows.

Peers with an empty region label (runs on the ideal fabric) fall into a
single ``"-"`` bucket, so the functions are safe to call on any result.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.metrics.collectors import PeerOutcome, switch_time_stats
from repro.metrics.report import reduction_ratio

__all__ = ["region_comparison_rows", "fabric_stats_rows"]

#: Bucket label used for peers without a region (ideal-fabric runs).
NO_REGION = "-"


def _by_region(outcome: PeerOutcome) -> str:
    return outcome.region or NO_REGION


def region_comparison_rows(
    normal_outcomes: Sequence[PeerOutcome],
    fast_outcomes: Sequence[PeerOutcome],
    *,
    horizon: float,
) -> List[Dict[str, object]]:
    """Paired per-region comparison rows (one per region of either run)."""
    normal = switch_time_stats(normal_outcomes, horizon=horizon, group=_by_region)
    fast = switch_time_stats(fast_outcomes, horizon=horizon, group=_by_region)
    absent = switch_time_stats((), horizon=horizon)[""]  # all zeros
    rows: List[Dict[str, object]] = []
    for region in sorted(set(normal) | set(fast)):
        n, f = normal.get(region, absent), fast.get(region, absent)
        rows.append(
            {
                "region": region,
                "peers": f.peers or n.peers,
                "normal_switch_time": n.mean,
                "fast_switch_time": f.mean,
                "reduction": reduction_ratio(n.mean, f.mean),
                "fast_p90": f.p90,
                "unfinished": f.unfinished,
            }
        )
    return rows


def fabric_stats_rows(stats: Mapping[str, float]) -> List[Dict[str, object]]:
    """The fabric counters of one run as printable ``metric``/``value`` rows."""
    return [
        {"metric": f"net {name}", "value": round(float(value), 5)}
        for name, value in sorted(stats.items())
    ]
