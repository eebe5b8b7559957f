"""Popularity-decile bucketing and weighted roll-ups of the universe.

The multi-channel universe (:mod:`repro.channels`) measures the paper's
source switch once per channel of a Zipf lineup.  A channel's *zap time*
distribution is the one switch-time summary,
:func:`~repro.metrics.collectors.switch_time_stats`, over its mesh (the
zap time of a peer is its switch completion time: the moment playback of
the new stream starts).  This module owns how channels roll up:

* :func:`decile_of` -- the popularity-decile bucketing shared by the
  lineup and the reports: decile 0 is the most popular tenth of the
  lineup, decile 9 the least popular.
* :func:`weighted_mean` -- peer-count-weighted averaging used to roll
  per-channel means up to deciles exactly (a decile's mean zap time is the
  mean over all peers of its channels, not the mean of channel means).
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["decile_of", "weighted_mean"]


def decile_of(rank: int, n_channels: int) -> int:
    """Popularity decile of the channel at popularity ``rank`` (0-based).

    The lineup is split into ten equal rank bands; with fewer than ten
    channels some deciles are simply unpopulated.

    Examples
    --------
    >>> [decile_of(r, 20) for r in (0, 1, 2, 18, 19)]
    [0, 0, 1, 9, 9]
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if not (0 <= rank < n_channels):
        raise ValueError(f"rank must be in [0, {n_channels}), got {rank}")
    return (rank * 10) // n_channels


def weighted_mean(pairs: Sequence[Tuple[float, int]]) -> float:
    """Mean of ``(value, weight)`` pairs; 0.0 when the weights sum to zero."""
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        return 0.0
    return sum(value * weight for value, weight in pairs) / total
