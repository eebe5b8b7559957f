"""The multi-channel universe: channel directory, Zipf lineups, zapping.

This package promotes the single S1 -> S2 switch of the paper into an
N-channel IPTV ecosystem:

:mod:`repro.channels.lineup`
    :class:`ChannelLineup` -- N channels with Zipf-skewed popularity and a
    deterministic audience apportionment.
:mod:`repro.channels.directory`
    :class:`Directory` -- the tracker: which viewer watches what, and
    per-channel membership services that hand joining/zapping peers ``M``
    alive neighbours on their target channel.
:mod:`repro.channels.zapping`
    :class:`ZappingProcess` -- surfing vs. loyal viewers hopping channels,
    compiled into per-channel arrival/departure schedules.
:mod:`repro.channels.universe`
    :class:`UniverseSpec` / :class:`UniverseSession` -- every channel mesh,
    both switch algorithms, on one shared engine and clock; each channel
    change is exactly the paper's fast/normal switch, measured across the
    whole lineup.
:mod:`repro.channels.runner`
    :class:`UniverseRunner` -- store-backed execution, bit-identical
    between the serial shared-engine path and the per-channel worker pool.
"""

from repro.channels.directory import Directory
from repro.channels.lineup import Channel, ChannelLineup, zipf_weights
from repro.channels.runner import (
    UniverseResult,
    UniverseRunner,
    run_universe,
    universe_fingerprint,
)
from repro.channels.universe import (
    ChannelOutcome,
    UniverseRepResult,
    UniverseSession,
    UniverseSpec,
    plan_universe,
    run_universe_rep,
)
from repro.channels.zapping import ZapEvent, ZapPlan, ZappingProcess

__all__ = [
    "Channel",
    "ChannelLineup",
    "zipf_weights",
    "Directory",
    "ZapEvent",
    "ZapPlan",
    "ZappingProcess",
    "UniverseSpec",
    "UniverseSession",
    "UniverseRepResult",
    "ChannelOutcome",
    "plan_universe",
    "run_universe_rep",
    "UniverseResult",
    "UniverseRunner",
    "run_universe",
    "universe_fingerprint",
]
