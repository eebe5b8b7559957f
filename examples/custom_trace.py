#!/usr/bin/env python
"""Running the switch experiment on your own overlay trace.

The paper evaluates on Gnutella crawl traces (``dss.clip2.com``).  Those
traces are long gone, but if you have any overlay crawl you can convert it
into the clip2/DSS-style text format documented in
``repro.overlay.trace`` and run the same experiments on it.  This example:

1. generates a synthetic trace file (stand-in for a real crawl),
2. parses it back, builds the overlay and augments it to M=5 neighbours,
3. runs the paired switch experiment on that custom overlay.

Usage::

    python examples/custom_trace.py [--n-nodes 250] [--keep path/to/trace]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.experiments.config import make_session_config
from repro.experiments.runner import PairedRunResult
from repro.metrics.report import format_table
from repro.overlay.augment import augment_to_min_degree
from repro.overlay.generator import generate_trace
from repro.overlay.topology import build_overlay_from_trace
from repro.overlay.trace import parse_trace, write_trace
from repro.records import to_json
from repro.streaming.session import SwitchSession


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-nodes", type=int, default=250)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--keep", type=str, default=None,
                        help="write the trace to this path instead of a temp file")
    args = parser.parse_args()

    # 1. write a crawl-style trace file
    records = generate_trace(args.n_nodes, seed=args.seed)
    if args.keep:
        trace_path = Path(args.keep)
    else:
        trace_path = Path(tempfile.gettempdir()) / f"repro-trace-{args.n_nodes}.trace"
    write_trace(records, trace_path, header=f"synthetic crawl, n={args.n_nodes}")
    print(f"Wrote {len(records)} crawl records to {trace_path}")

    # 2. load it back and prepare it for streaming (the paper's M=5 step)
    loaded = parse_trace(trace_path)
    overlay = build_overlay_from_trace(loaded)
    print(f"Parsed overlay: {len(overlay)} nodes, average crawled degree "
          f"{overlay.average_degree():.2f}")
    added = augment_to_min_degree(overlay, 5, np.random.default_rng(args.seed))
    print(f"Added {added} random edges so every node has at least 5 neighbours "
          f"(average degree now {overlay.average_degree():.2f})")

    # 3. run both algorithms on this custom overlay
    config = make_session_config(args.n_nodes, seed=args.seed, max_time=120.0)
    normal = SwitchSession(config.with_algorithm("normal"), overlay=overlay).run()
    fast = SwitchSession(config.with_algorithm("fast"), overlay=overlay).run()
    pair = PairedRunResult(normal=normal, fast=fast)

    print()
    print(format_table([to_json(pair.comparison(f"{args.n_nodes}-node custom trace"))]))
    print(f"\nSwitch-time reduction on this trace: {pair.switch_time_reduction:.1%}")


if __name__ == "__main__":
    main()
