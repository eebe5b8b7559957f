"""The zapping process: scripted cross-channel tune-away events.

Viewers of an IPTV lineup are not a homogeneous crowd: a minority of
*surfers* hop channels constantly while the *loyal* majority stays put for
whole programmes.  :class:`ZappingProcess` models that mix.  Each
scheduling period every viewer zaps with its class's per-period
probability; the destination is drawn from the lineup's Zipf popularity
(renormalised to exclude the current channel -- you cannot zap to where
you already are).  Each zap is recorded with the
:class:`~repro.channels.directory.Directory` (the tracker learns the
viewer's new channel) and compiled into per-channel, per-period
**arrival/departure counts**.

Those counts are what the channel meshes execute: a departure is a peer
leaving the mesh mid-switch, an arrival is a fresh peer asking the
directory for neighbours on its new channel -- i.e. every tune-away is
exactly the paper's source switch from the viewer's point of view, plus
membership churn on both meshes involved.  The plan is generated once,
up front, from a single spawned generator, which keeps channel meshes
causally independent: a mesh consumes its scripted counts without ever
observing another mesh's state, the property that lets the universe run
channels one after the other *or* on isolated worker processes with
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.channels.directory import Directory
from repro.channels.lineup import ChannelLineup
from repro.streaming.config import PeriodDirective

__all__ = ["ZapEvent", "ZapPlan", "ZappingProcess"]


@dataclass(frozen=True)
class ZapEvent:
    """One scripted channel change: viewer, period and the channels involved."""

    period: int
    viewer: int
    from_channel: int
    to_channel: int


@dataclass(frozen=True)
class ZapPlan:
    """The compiled zapping script of one universe repetition.

    Attributes
    ----------
    n_periods:
        Scheduling periods the plan covers (periods are 1-based).
    events:
        Every zap in generation order.
    arrivals / departures:
        Per channel, a tuple of ``(period, count)`` pairs -- the counts the
        channel's mesh executes as joins/leaves in that period.
    surfers:
        How many viewers the class draw made surfers.
    final_audiences:
        Audience of each channel after the last period (bookkeeping).
    """

    n_periods: int
    events: Tuple[ZapEvent, ...]
    arrivals: Tuple[Tuple[Tuple[int, int], ...], ...]
    departures: Tuple[Tuple[Tuple[int, int], ...], ...]
    surfers: int
    final_audiences: Tuple[int, ...]

    @property
    def n_zaps(self) -> int:
        """Total scripted channel changes."""
        return len(self.events)

    def channel_directives(self, channel_index: int) -> Dict[int, PeriodDirective]:
        """The per-period directives channel ``channel_index``'s mesh runs.

        Arrivals become exact join counts, departures exact leave counts
        (see :class:`~repro.streaming.config.PeriodDirective`); periods
        without traffic are omitted.
        """
        joins = dict(self.arrivals[channel_index])
        leaves = dict(self.departures[channel_index])
        directives: Dict[int, PeriodDirective] = {}
        for period in sorted(set(joins) | set(leaves)):
            directives[period] = PeriodDirective(
                leave_count=leaves.get(period),
                join_count=joins.get(period),
                phase="zapping",
            )
        return directives


class ZappingProcess:
    """Generates the deterministic zap plan of one universe repetition.

    Parameters
    ----------
    lineup:
        The channel lineup (audiences define the initial assignment:
        viewers are numbered 0.. and fill channels in lineup order).
    directory:
        The universe's tracker; viewers are registered here and every zap
        is recorded through :meth:`Directory.tune`.
    surfer_fraction:
        Probability that a viewer is a surfer (class draw, one per viewer).
    surfer_zap_rate / loyal_zap_rate:
        Per-period zap probability of each class.
    rng:
        The universe-level generator (spawned from the repetition seed).
    """

    def __init__(
        self,
        lineup: ChannelLineup,
        directory: Directory,
        *,
        surfer_fraction: float,
        surfer_zap_rate: float,
        loyal_zap_rate: float,
        rng: np.random.Generator,
    ) -> None:
        for name, value in (
            ("surfer_fraction", surfer_fraction),
            ("surfer_zap_rate", surfer_zap_rate),
            ("loyal_zap_rate", loyal_zap_rate),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.lineup = lineup
        self.directory = directory
        self.surfer_fraction = float(surfer_fraction)
        self.surfer_zap_rate = float(surfer_zap_rate)
        self.loyal_zap_rate = float(loyal_zap_rate)
        self._rng = rng

    def generate(self, n_periods: int) -> ZapPlan:
        """Script ``n_periods`` of zapping over the whole viewer population."""
        if n_periods < 0:
            raise ValueError(f"n_periods must be non-negative, got {n_periods}")
        lineup = self.lineup
        n_channels = lineup.n_channels
        n_viewers = lineup.total_audience
        rng = self._rng

        is_surfer = rng.random(n_viewers) < self.surfer_fraction
        zap_prob = np.where(is_surfer, self.surfer_zap_rate, self.loyal_zap_rate)
        current = np.repeat(np.arange(n_channels), lineup.audiences())
        for viewer in range(n_viewers):
            self.directory.register_viewer(viewer, int(current[viewer]))

        popularity = lineup.popularity_array()
        arrivals: List[Dict[int, int]] = [dict() for _ in range(n_channels)]
        departures: List[Dict[int, int]] = [dict() for _ in range(n_channels)]
        events = []
        for period in range(1, n_periods + 1):
            zapping = np.nonzero(rng.random(n_viewers) < zap_prob)[0]
            for viewer in zapping:
                origin = int(current[viewer])
                if n_channels == 1:
                    continue  # nowhere else to go
                weights = popularity.copy()
                weights[origin] = 0.0
                weights /= weights.sum()
                destination = int(rng.choice(n_channels, p=weights))
                current[viewer] = destination
                self.directory.tune(int(viewer), destination)
                departures[origin][period] = departures[origin].get(period, 0) + 1
                arrivals[destination][period] = arrivals[destination].get(period, 0) + 1
                events.append(
                    ZapEvent(
                        period=period,
                        viewer=int(viewer),
                        from_channel=origin,
                        to_channel=destination,
                    )
                )

        return ZapPlan(
            n_periods=int(n_periods),
            events=tuple(events),
            arrivals=tuple(
                tuple(sorted(channel.items())) for channel in arrivals
            ),
            departures=tuple(
                tuple(sorted(channel.items())) for channel in departures
            ),
            surfers=int(is_surfer.sum()),
            final_audiences=tuple(
                int(v) for v in np.bincount(current, minlength=n_channels)
            ),
        )
