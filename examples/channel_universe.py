#!/usr/bin/env python
"""Channel universe: the paper's switch measured across a Zipf lineup.

Builds a small multi-channel universe -- a lineup of channels under
Zipf-skewed popularity shared by a population of surfing and loyal
viewers -- and runs every channel's paired fast-vs-normal source switch,
each mesh on its own clock.  Prints the per-channel zap-time table and the
per-popularity-decile comparison.

Usage::

    python examples/channel_universe.py [--channels 8] [--viewers 200] [--seed 0]
"""

from __future__ import annotations

import argparse

from repro import get_universe, run_universe
from repro.metrics.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--channels", type=int, default=8,
                        help="lineup size (popularity ranks)")
    parser.add_argument("--viewers", type=int, default=200,
                        help="total viewer population across the lineup")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (bit-identical to serial)")
    args = parser.parse_args()

    spec = get_universe("lineup-zipf").scaled_to(
        n_channels=args.channels, n_viewers=args.viewers
    )
    print(f"universe: {spec.name} scaled to {spec.n_channels} channels / "
          f"{spec.n_viewers} viewers (seed {args.seed})")
    print(f"viewer mix: {spec.surfer_fraction:.0%} surfers zapping at "
          f"{spec.surfer_zap_rate:.0%}/period, loyal at "
          f"{spec.loyal_zap_rate:.0%}/period\n")

    result = run_universe(spec, seed=args.seed, workers=args.workers)

    print("per-channel zap times (every channel runs the paper's paired switch):")
    print(format_table(result.channel_rows()))
    print()
    print("per-popularity-decile zap times (decile 0 = most popular tenth):")
    print(format_table(result.decile_rows()))
    print(f"\n{result.n_zaps} scripted zaps; "
          f"mean zap-time reduction: {result.mean_reduction:.1%}")


if __name__ == "__main__":
    main()
