"""Registry entries for the nine classic paper figures.

One table of rows over :func:`~repro.experiments.figures.figure2` and the
family builders of :mod:`repro.experiments.figures` -- the ratio track and
the three views of the size sweep -- each bound to its figure number and
its environment (static or dynamic).  A row also declares, through its
kind, the keyword surface the builder accepts, so
:func:`repro.figures.registry.render_figure` can feed every figure from
one uniform kwargs set.
"""

from __future__ import annotations

from functools import partial

from repro.experiments import figures as _fig
from repro.figures.registry import FigureSpec, register_figure

__all__ = ["register_paper_figures"]

#: Parameter surface per figure kind.
_PARAMS = {
    "static": (),
    "track": ("n_nodes", "seed", "paper_scale", "max_time", "store"),
    "sweep": ("sizes", "seed", "repetitions", "paper_scale", "store", "workers"),
}

_TRACK = _fig._ratio_track
_TIMES = partial(_fig._sweep_figure, _fig._times_figure)
_SWITCH = partial(_fig._sweep_figure, _fig._switch_time_figure)
_OVERHEAD = partial(_fig._sweep_figure, _fig._overhead_figure)

#: (name, paper figure number, kind, family builder, dynamic, title,
#: description), in registration -- that is, report -- order.
_PAPER_FIGURES = (
    ("fig2-ordering", "2", "static", _fig.figure2, None,
     "Request ordering example (Figure 2)",
     "The illustrative normal-vs-fast request-ordering walkthrough; pure "
     "arithmetic, no simulation."),
    ("fig5-ratio-static", "5", "track", _TRACK, False,
     "Prepared-segment ratio over time, static network (Figure 5)",
     "Ratio track of one switching peer in a static mesh."),
    ("fig6-times-static", "6", "sweep", _TIMES, False,
     "Finishing/preparing times vs size, static (Figure 6)",
     "Average finishing and preparing times across network sizes in static meshes."),
    ("fig7-switch-static", "7", "sweep", _SWITCH, False,
     "Switch time vs size, static (Figure 7)",
     "Mean source-switch latency across network sizes in static meshes."),
    ("fig8-overhead-static", "8", "sweep", _OVERHEAD, False,
     "Control overhead vs size, static (Figure 8)",
     "Control-message overhead across network sizes in static meshes."),
    ("fig9-ratio-dynamic", "9", "track", _TRACK, True,
     "Prepared-segment ratio over time, dynamic network (Figure 9)",
     "Ratio track of one switching peer in a churning mesh."),
    ("fig10-times-dynamic", "10", "sweep", _TIMES, True,
     "Finishing/preparing times vs size, dynamic (Figure 10)",
     "Average finishing and preparing times across network sizes under churn."),
    ("fig11-switch-dynamic", "11", "sweep", _SWITCH, True,
     "Switch time vs size, dynamic (Figure 11)",
     "Mean source-switch latency across network sizes under churn."),
    ("fig12-overhead-dynamic", "12", "sweep", _OVERHEAD, True,
     "Control overhead vs size, dynamic (Figure 12)",
     "Control-message overhead across network sizes under churn."),
)


def register_paper_figures() -> None:
    """Register figures 2 and 5-12 (called once on package import)."""
    for name, figure_id, kind, family, dynamic, title, description in _PAPER_FIGURES:
        register_figure(FigureSpec(
            name=name,
            title=title,
            kind=kind,
            builder=family if dynamic is None else partial(family, figure_id, dynamic),
            figure_id=figure_id,
            description=description,
            params=_PARAMS[kind],
        ))
