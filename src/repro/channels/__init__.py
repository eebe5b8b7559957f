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
    :class:`UniverseSpec` / :func:`run_universe_rep` -- every channel mesh
    under both switch algorithms; each channel change is exactly the
    paper's fast/normal switch, measured across the whole lineup.
:mod:`repro.channels.runner`
    :func:`run_universe` -- store-backed execution, bit-identical
    between the in-process run and the sharded worker pool.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "Channel": "repro.channels.lineup",
    "ChannelLineup": "repro.channels.lineup",
    "zipf_weights": "repro.channels.lineup",
    "Directory": "repro.channels.directory",
    "ZapEvent": "repro.channels.zapping",
    "ZapPlan": "repro.channels.zapping",
    "ZappingProcess": "repro.channels.zapping",
    "UniverseSpec": "repro.channels.universe",
    "UniverseRepResult": "repro.channels.universe",
    "ChannelOutcome": "repro.channels.universe",
    "plan_universe": "repro.channels.universe",
    "run_universe_rep": "repro.channels.universe",
    "UniverseResult": "repro.channels.runner",
    "run_universe": "repro.channels.runner",
    "universe_fingerprint": "repro.channels.runner",
})
