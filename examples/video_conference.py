#!/usr/bin/env python
"""Speaker hand-over in a P2P video conference.

The paper motivates serial multi-source streaming with video conferencing:
every member can become the source, but only one speaks at a time.  This
example simulates a speaker change in a 300-participant conference and
shows the per-round progress of the switch (the data behind the paper's
Figure 5) as a small ASCII chart, for both algorithms.

Usage::

    python examples/video_conference.py [--algorithm fast|normal|both]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.experiments.runner import run_single
from repro.metrics.report import format_table
from repro.workloads.library import get_workload
from repro.workloads.runner import segment_config
from repro.workloads.schedule import compile_workload

DESCRIPTION = (
    "A 300-participant conference; the speaker changes repeatedly and "
    "every participant must switch to each new speaker's stream quickly "
    "(static membership)."
)


def _ascii_series(series, width: int = 50) -> str:
    """Render a (time, ratio in [0,1]) series as one bar line per sample."""
    lines = []
    for time, value in series:
        bar = "#" * int(round(max(0.0, min(1.0, value)) * width))
        lines.append(f"  t={time:5.1f}s |{bar:<{width}}| {value:5.2f}")
    return "\n".join(lines)


def run(algorithm: str) -> None:
    # The zapping workload with static membership, resized to 300 members;
    # one session is its first speaker change.
    spec = replace(get_workload("zapping"), n_nodes=300,
                   base_join_fraction=0.0, base_leave_fraction=0.0)
    config = segment_config(spec, compile_workload(spec).segments[0], 7, algorithm=algorithm)
    print(f"\n=== video-conference with the {algorithm} switch algorithm ===")
    print(DESCRIPTION)
    result = run_single(config)
    metrics = result.metrics

    print(f"\nDelivered ratio of the new speaker's stream over time "
          f"({algorithm} algorithm):")
    series = metrics.series("delivered_ratio_new")
    print(_ascii_series(series[:: max(1, len(series) // 20)]))

    print()
    print(format_table([
        {"metric": "participants tracked", "value": metrics.n_peers},
        {"metric": "avg finish of old speaker (s)", "value": round(metrics.avg_finish_old, 2)},
        {"metric": "avg switch time (s)", "value": round(metrics.avg_switch_time, 2)},
        {"metric": "slowest participant ready (s)", "value": round(metrics.last_prepare_new, 2)},
        {"metric": "playback stalls (total)", "value": sum(o.stalls for o in metrics.outcomes)},
        {"metric": "communication overhead", "value": round(result.overhead_ratio, 4)},
    ], ["metric", "value"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algorithm", choices=["fast", "normal", "both"], default="both")
    args = parser.parse_args()
    algorithms = ["normal", "fast"] if args.algorithm == "both" else [args.algorithm]
    for algorithm in algorithms:
        run(algorithm)


if __name__ == "__main__":
    main()
