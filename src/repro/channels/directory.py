"""The channel directory: the universe's tracker service.

Real gossip streaming deployments bootstrap through a tracker: a joining
(or zapping) client asks the tracker for the channel it wants, and the
tracker answers with a handful of alive members of *that channel's*
overlay.  The single-switch reproduction never needed one -- there was only
one overlay, so :class:`~repro.overlay.membership.MembershipService` could
assume "the" overlay implicitly.  A multi-channel universe breaks that
assumption: partner selection must be scoped to the target channel, and
somebody has to know which viewer watches what.

:class:`Directory` is that somebody.  It keeps the **viewer registry** --
which logical viewer is tuned to which channel (maintained by the
:class:`~repro.channels.zapping.ZappingProcess` as it scripts tune-away
events) -- and hands every channel mesh its own
:class:`~repro.overlay.membership.MembershipService` through
:meth:`membership_factory`.  Joining and zapping peers thereby obtain
their ``M`` alive neighbours *on their target channel*, and neighbour-set
repair after departures draws partners from the same channel-scoped pool
(directory-backed repair).  A mesh's service belongs to its
:class:`~repro.streaming.session.SwitchSession` alone: the directory keeps
no reference, so a finished mesh is freed while the plan lives on.

Determinism: each channel's membership randomness is seeded from that
channel's spawned seed (see :func:`repro.sim.rng.sequence_seeds`), and the
factory derives identical generators no matter which process builds the
mesh -- the property that makes the universe bit-identical between the
serial path and per-channel worker processes.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.channels.lineup import ChannelLineup
from repro.overlay.membership import MembershipService
from repro.overlay.topology import Overlay
from repro.sim.rng import derive_seed

__all__ = ["Directory"]


class Directory:
    """Tracker of a multi-channel universe (see module docstring).

    Parameters
    ----------
    lineup:
        The channel lineup being served.
    min_degree:
        Target neighbour count ``M`` for every channel mesh.
    channel_seeds:
        One spawned seed per channel (``sequence_seeds``); membership
        randomness for channel ``c`` derives from ``channel_seeds[c]``.
    """

    def __init__(
        self,
        lineup: ChannelLineup,
        *,
        min_degree: int,
        channel_seeds: Sequence[int],
    ) -> None:
        if len(channel_seeds) != lineup.n_channels:
            raise ValueError(
                f"need one seed per channel: {lineup.n_channels} channels, "
                f"{len(channel_seeds)} seeds"
            )
        self.lineup = lineup
        self.min_degree = int(min_degree)
        self.channel_seeds = tuple(int(s) for s in channel_seeds)
        self._channel_of: Dict[int, int] = {}
        self._audiences: List[int] = [0] * lineup.n_channels
        #: cumulative tune-away events recorded through :meth:`tune`
        self.zaps = 0

    # ------------------------------------------------------------------ #
    # viewer registry
    # ------------------------------------------------------------------ #
    def register_viewer(self, viewer_id: int, channel_index: int) -> None:
        """Register a viewer as initially tuned to ``channel_index``."""
        self._check_channel(channel_index)
        if viewer_id in self._channel_of:
            raise ValueError(f"viewer {viewer_id} is already registered")
        self._channel_of[viewer_id] = int(channel_index)
        self._audiences[channel_index] += 1

    def channel_of(self, viewer_id: int) -> int:
        """The channel a registered viewer is currently tuned to."""
        return self._channel_of[viewer_id]

    def tune(self, viewer_id: int, to_channel: int) -> int:
        """Retune a viewer to ``to_channel``; returns the channel it left."""
        self._check_channel(to_channel)
        from_channel = self._channel_of[viewer_id]
        if from_channel == to_channel:
            return from_channel
        self._channel_of[viewer_id] = int(to_channel)
        self._audiences[from_channel] -= 1
        self._audiences[to_channel] += 1
        self.zaps += 1
        return from_channel

    def audience(self, channel_index: int) -> int:
        """Current number of registered viewers tuned to a channel."""
        self._check_channel(channel_index)
        return self._audiences[channel_index]

    def audiences(self) -> Tuple[int, ...]:
        """Current audiences of every channel, in lineup order."""
        return tuple(self._audiences)

    # ------------------------------------------------------------------ #
    # channel meshes
    # ------------------------------------------------------------------ #
    def membership_factory(
        self, channel_index: int
    ) -> Callable[[Overlay, FrozenSet[int]], MembershipService]:
        """A membership-service factory for the meshes of one channel.

        The returned callable matches the ``membership_factory`` hook of
        :class:`~repro.streaming.session.SwitchSession`: called with the
        session's overlay and protected source ids, it creates a
        channel-scoped :class:`MembershipService`.  Every call seeds a fresh
        generator from the channel seed only, so both algorithms of a
        paired run draw the same partners, exactly like every other random
        draw of the mesh.
        """
        self._check_channel(channel_index)
        seed = derive_seed(self.channel_seeds[channel_index], "channel-membership")

        def factory(
            overlay: Overlay, protected: Iterable[int] = ()
        ) -> MembershipService:
            return MembershipService(
                overlay,
                self.min_degree,
                np.random.default_rng(seed),
                protected=protected,
            )

        return factory

    # ------------------------------------------------------------------ #
    def _check_channel(self, channel_index: int) -> None:
        if not (0 <= channel_index < self.lineup.n_channels):
            raise ValueError(
                f"channel index must be in [0, {self.lineup.n_channels}), "
                f"got {channel_index}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Directory(channels={self.lineup.n_channels}, "
            f"viewers={len(self._channel_of)}, zaps={self.zaps})"
        )
