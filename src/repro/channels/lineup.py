"""Channel lineups: N channels under Zipf-skewed popularity.

IPTV measurement studies consistently find channel popularity to be highly
skewed -- a few head channels hold most of the audience while a long tail
shares the rest -- and model it with a Zipf law over the popularity rank.
:func:`zipf_weights` produces that distribution, and
:class:`ChannelLineup` turns it into a concrete lineup: one
:class:`Channel` per rank with a normalised popularity weight and an
initial integer audience apportioned from the viewer population.

Everything here is *deterministic*: the weights are a pure function of the
lineup size and exponent, and the audience apportionment uses the
largest-remainder method (with a minimum-audience floor so every channel
can sustain a gossip mesh of minimum degree ``M``).  Randomness enters the
universe only through the zapping process and the per-channel meshes, which
keeps lineups identical across repetitions, workers and machines.

The popularity *rank* also defines the popularity **decile** used by the
reporting layer (:func:`repro.metrics.universe.decile_of`): decile 0 holds
the most popular tenth of the lineup, decile 9 the least popular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.metrics.universe import decile_of

__all__ = ["zipf_weights", "Channel", "ChannelLineup"]


def zipf_weights(n_channels: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights for ranks ``1..n_channels``.

    ``weights[i]`` is proportional to ``(i + 1) ** -exponent`` and the
    vector sums to 1 exactly (up to float rounding).

    Examples
    --------
    >>> w = zipf_weights(4, 1.0)
    >>> bool(abs(w.sum() - 1.0) < 1e-12)
    True
    >>> bool(w[0] > w[1] > w[2] > w[3])
    True
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, n_channels + 1, dtype=float)
    raw = ranks ** -float(exponent)
    return raw / raw.sum()


@dataclass(frozen=True)
class Channel:
    """One channel of the lineup.

    Attributes
    ----------
    index:
        Popularity rank, 0-based (0 = most popular).
    name:
        Human-readable channel name (``ch-01`` is the most popular).
    popularity:
        Normalised popularity weight (the lineup's weights sum to 1).
    audience:
        Initial number of viewers apportioned to this channel.
    """

    index: int
    name: str
    popularity: float
    audience: int


@dataclass(frozen=True)
class ChannelLineup:
    """An ordered lineup of channels, most popular first."""

    channels: Tuple[Channel, ...]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("a lineup needs at least one channel")
        if not isinstance(self.channels, tuple):
            object.__setattr__(self, "channels", tuple(self.channels))

    # ------------------------------------------------------------------ #
    @property
    def n_channels(self) -> int:
        """Number of channels in the lineup."""
        return len(self.channels)

    @property
    def total_audience(self) -> int:
        """Total viewers across the lineup (the universe's population)."""
        return sum(channel.audience for channel in self.channels)

    def popularity_array(self) -> np.ndarray:
        """The channels' popularity weights as a float array."""
        return np.asarray([c.popularity for c in self.channels], dtype=float)

    def audiences(self) -> Tuple[int, ...]:
        """The channels' initial audiences, in lineup order."""
        return tuple(c.audience for c in self.channels)

    def decile(self, index: int) -> int:
        """Popularity decile (0 = most popular tenth) of channel ``index``."""
        return decile_of(index, self.n_channels)

    # ------------------------------------------------------------------ #
    @staticmethod
    def build(
        n_channels: int,
        n_viewers: int,
        *,
        exponent: float = 1.0,
        min_audience: int = 8,
    ) -> "ChannelLineup":
        """Build a lineup of ``n_channels`` sharing ``n_viewers`` viewers.

        The audience apportionment is the largest-remainder method over the
        Zipf weights: every channel first receives the floor of its exact
        quota, leftover viewers go to the largest fractional remainders
        (ties to the more popular channel), and finally channels below
        ``min_audience`` are topped up by taking single viewers from the
        currently largest channels -- all deterministic, and the total is
        exactly ``n_viewers``.
        """
        if min_audience < 1:
            raise ValueError(f"min_audience must be >= 1, got {min_audience}")
        if n_viewers < n_channels * min_audience:
            raise ValueError(
                f"need at least n_channels * min_audience = "
                f"{n_channels * min_audience} viewers, got {n_viewers}"
            )
        weights = zipf_weights(n_channels, exponent)
        quotas = weights * n_viewers
        audiences: List[int] = [int(q) for q in np.floor(quotas)]
        leftovers = n_viewers - sum(audiences)
        by_remainder = sorted(
            range(n_channels), key=lambda i: (-(quotas[i] - audiences[i]), i)
        )
        for i in by_remainder[:leftovers]:
            audiences[i] += 1
        # Enforce the floor: lift deficient channels one viewer at a time,
        # taken from the currently largest channel (ties to the more
        # popular one), which can never push the donor below the floor
        # because the total is at least n_channels * min_audience.
        for i in range(n_channels):
            while audiences[i] < min_audience:
                donor = min(
                    range(n_channels),
                    key=lambda j: (-audiences[j], j),
                )
                audiences[donor] -= 1
                audiences[i] += 1
        channels = tuple(
            Channel(
                index=i,
                name=f"ch-{i + 1:02d}",
                popularity=float(weights[i]),
                audience=audiences[i],
            )
            for i in range(n_channels)
        )
        return ChannelLineup(channels=channels)
