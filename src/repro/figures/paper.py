"""The paper's figures: Figure 2 and the two environments of Figures 5--12.

Figure 2 is one function; the other eight are two environments (static,
dynamic) of four families -- the ratio track (5, 9) and the three views of
one size sweep: times (6, 10), switch time (7, 11) and overhead (8, 12).
Each builder runs (or replays) the necessary simulations and returns a
:class:`~repro.figures.spec.FigureResult` holding the plotted series/rows
as plain Python data (nothing here depends on matplotlib).
:data:`PAPER_FIGURES` binds each family to its figure number and its
environment under a stable name (``fig7-switch-static``, ...).

Default parameters are reduced relative to the paper (smaller overlays) so
that the whole figure suite runs in minutes; pass ``paper_scale=True``
(``--paper-scale`` on the command line) to use the paper's 100--8000-node
sweep and the 1000-node ratio tracks.

Every simulation-backed builder accepts ``store=`` (a
:class:`~repro.experiments.store.ResultStore`): with a warm store, figure
generation is pure replay -- no simulator code runs.  The sweep figures
additionally accept ``workers=`` to fan the underlying size sweep out over
the worker pool (see :func:`~repro.experiments.sweeps.run_size_sweep`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import LocalView, NeighbourView, Stream
from repro.core.fast_switch import FastSwitchAlgorithm
from repro.core.normal_switch import NormalSwitchAlgorithm
from repro.experiments.config import (
    make_session_config,
    ratio_track_size,
    sweep_sizes,
)
from repro.experiments.runner import run_pair
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import run_size_sweep
from repro.figures.spec import FigureResult, FigureSpec

__all__ = ["figure2", "PAPER_FIGURES"]


# --------------------------------------------------------------------------- #
# Figure 2: the illustrative request-ordering example
# --------------------------------------------------------------------------- #
def figure2() -> FigureResult:
    """Reproduce the paper's Figure 2 request-ordering example.

    A node can receive 7 segments in the scheduling period while 10 are
    available: 5 of the old source and 5 of the new source.  The normal
    algorithm requests the 5 old segments and then 2 new ones; the fast
    algorithm interleaves old and new segments according to the
    urgency/rarity priorities and the optimal rate split.
    """
    old_ids = [0, 1, 2, 3, 4]
    new_ids = [5, 6, 7, 8, 9]
    neighbour = NeighbourView(
        node_id=100,
        send_rate=20.0,
        available=frozenset(old_ids + new_ids),
        positions={seg: 1 + seg for seg in old_ids + new_ids},
        buffer_capacity=600,
    )
    view = LocalView(
        now=0.0,
        tau=1.0,
        play_rate=10.0,
        inbound_rate=7.0,
        playback_id=0,
        startup_quota_old=2,
        startup_quota_new=5,
        old_needed=frozenset(old_ids),
        new_needed=frozenset(new_ids),
        id_end=4,
        id_begin=5,
        neighbours=(neighbour,),
    )
    fast = FastSwitchAlgorithm().schedule(view)
    normal = NormalSwitchAlgorithm().schedule(view)

    def describe(requests) -> List[str]:
        return [
            f"{'S1' if r.stream is Stream.OLD else 'S2'}#{r.seg_id}" for r in requests
        ]

    rows = [
        {"algorithm": "normal", "order": " ".join(describe(normal.requests)),
         "old_requested": len(normal.old_requests), "new_requested": len(normal.new_requests)},
        {"algorithm": "fast", "order": " ".join(describe(fast.requests)),
         "old_requested": len(fast.old_requests), "new_requested": len(fast.new_requests)},
    ]
    return FigureResult(
        figure_id="2",
        title="Request ordering of the fast vs the normal switch algorithm",
        rows=rows,
        series={},
        notes="Both algorithms fill 7 request slots out of 10 available segments.",
        meta={"inbound_rate": 7, "old_available": 5, "new_available": 5},
    )


# --------------------------------------------------------------------------- #
# Ratio-track figures (5 static, 9 dynamic)
# --------------------------------------------------------------------------- #
def _ratio_track(
    figure_id: str,
    dynamic: bool,
    *,
    n_nodes: Optional[int] = None,
    seed: int = 0,
    paper_scale: bool = False,
    max_time: float = 60.0,
    store: Optional[ResultStore] = None,
) -> FigureResult:
    """Figures 5 / 9: the ratio track of one paired run (paper: 1000 nodes;
    dynamic: 5% churn)."""
    size = n_nodes if n_nodes is not None else ratio_track_size(paper_scale=paper_scale)
    config = make_session_config(
        size, seed=seed, dynamic=dynamic, record_rounds=True, max_time=max_time
    )
    pair = run_pair(config, store=store)

    series: Dict[str, List[Tuple[float, float]]] = {
        "normal_undelivered_ratio_S1": pair.normal.metrics.series("undelivered_ratio_old"),
        "fast_undelivered_ratio_S1": pair.fast.metrics.series("undelivered_ratio_old"),
        "normal_delivered_ratio_S2": pair.normal.metrics.series("delivered_ratio_new"),
        "fast_delivered_ratio_S2": pair.fast.metrics.series("delivered_ratio_new"),
    }
    # The two runs may stop at different times (whichever algorithm finishes
    # first stops sampling); forward-fill each series so every row is fully
    # populated -- the ratios are constant once a run has completed.
    times = sorted({t for s in series.values() for t, _ in s})
    lookup = {name: dict(values) for name, values in series.items()}
    last_seen: Dict[str, float] = {name: float("nan") for name in series}
    rows = []
    for t in times:
        row: Dict[str, object] = {"time": t}
        for name in series:
            if t in lookup[name]:
                last_seen[name] = lookup[name][t]
            row[name] = last_seen[name]
        rows.append(row)
    environment = "dynamic" if dynamic else "static"
    return FigureResult(
        figure_id=figure_id,
        title=f"Undelivered ratio of S1 and delivered ratio of S2 over time ({environment})",
        rows=rows,
        series=series,
        notes=(
            "Paper shape: the normal algorithm drains S1 faster but prepares S2 later; "
            "the fast algorithm balances both so the switch completes earlier."
        ),
        meta={"n_nodes": size, "seed": seed, "dynamic": dynamic},
    )


# --------------------------------------------------------------------------- #
# Size-sweep figures (6/7/8 static, 10/11/12 dynamic)
# --------------------------------------------------------------------------- #
def _sweep_view(
    title: str,
    columns: Dict[str, str],
    notes: str,
    figure_id: str,
    dynamic: bool,
    *,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
    repetitions: int = 1,
    paper_scale: bool = False,
    store: Optional[ResultStore] = None,
    workers: int = 1,
) -> FigureResult:
    """Figures 6-8 / 10-12: one view of the paired size sweep -- a row per
    size and a series per column, ``columns`` mapping each column name to a
    :class:`~repro.experiments.sweeps.SweepPoint` field.  The three views of
    an environment share the sweep."""
    chosen = tuple(sizes) if sizes is not None else tuple(sweep_sizes(paper_scale=paper_scale))
    sweep = run_size_sweep(chosen, dynamic=dynamic, seed=seed, repetitions=repetitions,
                           store=store, workers=workers)
    rows = [
        {"n_nodes": p.n_nodes, **{name: getattr(p, key) for name, key in columns.items()}}
        for p in sweep.points
    ]
    return FigureResult(
        figure_id=figure_id,
        title=f"{title} ({'dynamic' if dynamic else 'static'})",
        rows=rows,
        series={name: sweep.series(key) for name, key in columns.items()},
        notes=notes,
        meta={"dynamic": dynamic, "seed": sweep.seed,
              "sizes": [p.n_nodes for p in sweep.points]},
    )


_TIMES = partial(
    _sweep_view,
    "Average finishing time of S1 and preparing time of S2",
    {"normal_finish_S1": "normal_finish_old", "fast_finish_S1": "fast_finish_old",
     "fast_prepare_S2": "fast_prepare_new", "normal_prepare_S2": "normal_prepare_new"},
    "Paper shape: per size the four bars satisfy "
    "normal_finish <= fast_finish <= fast_prepare <= normal_prepare; the fast "
    "algorithm splits the difference between the normal algorithm's finish and "
    "prepare times.",
)
_SWITCH = partial(
    _sweep_view,
    "Average switch time and its reduction ratio",
    {"normal_switch_time": "normal_switch_time", "fast_switch_time": "fast_switch_time",
     "reduction_ratio": "reduction"},
    "Paper shape: reduction ratio between 0.2 and 0.3, tending to increase with "
    "the network size.",
)
_OVERHEAD = partial(
    _sweep_view,
    "Communication overhead",
    {"fast_overhead": "fast_overhead", "normal_overhead": "normal_overhead"},
    "Paper shape: both algorithms stay in the ~1-2% range; the fast algorithm's "
    "overhead is slightly lower because it moves more data per exchanged map.",
)

#: Figures 2 and 5--12 in report order: (name, title, builder, figure
#: number, description).
PAPER_FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec("fig2-ordering", "Request ordering example (Figure 2)", figure2, "2",
               "The illustrative normal-vs-fast request-ordering walkthrough; pure "
               "arithmetic, no simulation."),
    FigureSpec("fig5-ratio-static",
               "Prepared-segment ratio over time, static network (Figure 5)",
               partial(_ratio_track, "5", False), "5",
               "Ratio track of one switching peer in a static mesh."),
    FigureSpec("fig6-times-static", "Finishing/preparing times vs size, static (Figure 6)",
               partial(_TIMES, "6", False), "6",
               "Average finishing and preparing times across network sizes in static "
               "meshes."),
    FigureSpec("fig7-switch-static", "Switch time vs size, static (Figure 7)",
               partial(_SWITCH, "7", False), "7",
               "Mean source-switch latency across network sizes in static meshes."),
    FigureSpec("fig8-overhead-static", "Control overhead vs size, static (Figure 8)",
               partial(_OVERHEAD, "8", False), "8",
               "Control-message overhead across network sizes in static meshes."),
    FigureSpec("fig9-ratio-dynamic",
               "Prepared-segment ratio over time, dynamic network (Figure 9)",
               partial(_ratio_track, "9", True), "9",
               "Ratio track of one switching peer in a churning mesh."),
    FigureSpec("fig10-times-dynamic", "Finishing/preparing times vs size, dynamic (Figure 10)",
               partial(_TIMES, "10", True), "10",
               "Average finishing and preparing times across network sizes under churn."),
    FigureSpec("fig11-switch-dynamic", "Switch time vs size, dynamic (Figure 11)",
               partial(_SWITCH, "11", True), "11",
               "Mean source-switch latency across network sizes under churn."),
    FigureSpec("fig12-overhead-dynamic", "Control overhead vs size, dynamic (Figure 12)",
               partial(_OVERHEAD, "12", True), "12",
               "Control-message overhead across network sizes under churn."),
)
