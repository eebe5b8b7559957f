"""Named experiment configurations.

The paper's evaluation parameters (Section 5.1) are the defaults of
:class:`~repro.streaming.config.SessionConfig`; this module builds a run's
configuration from them (:func:`make_session_config`, which adds the
paper's churn for the dynamic environment) and names the overlay sizes the
figures sweep:

* :data:`PAPER_SWEEP_SIZES` -- the overlay sizes of Figures 6--8 and 10--12
  (100 to 8000 nodes),
* :data:`BENCH_SWEEP_SIZES` -- the reduced default sweep, so that the
  figure suite completes in minutes on a laptop; the full sweep is one
  flag away (``repro-gossip figure 7 --paper-scale``,
  ``paper_scale=True`` in the API).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.churn.model import ChurnConfig
from repro.streaming.config import SessionConfig

__all__ = [
    "PAPER_SWEEP_SIZES",
    "BENCH_SWEEP_SIZES",
    "RATIO_TRACK_SIZE",
    "BENCH_RATIO_TRACK_SIZE",
    "make_session_config",
]

#: Overlay sizes swept by the paper (Figures 6-8, 10-12).
PAPER_SWEEP_SIZES: Tuple[int, ...] = (100, 500, 1000, 2000, 4000, 8000)

#: The reduced default sweep.
BENCH_SWEEP_SIZES: Tuple[int, ...] = (100, 200, 400)

#: Overlay size of the ratio-track figures (5 and 9) in the paper.
RATIO_TRACK_SIZE: int = 1000

#: The reduced default ratio-track size.
BENCH_RATIO_TRACK_SIZE: int = 300


def make_session_config(
    n_nodes: int,
    *,
    algorithm: str = "fast",
    seed: int = 0,
    dynamic: bool = False,
    **overrides: object,
) -> SessionConfig:
    """Build a :class:`SessionConfig` for one experimental run.

    Parameters
    ----------
    n_nodes:
        Overlay size.
    algorithm:
        ``"fast"`` or ``"normal"``.
    seed:
        Root random seed.  Paired comparisons must use the same seed for
        both algorithms.
    dynamic:
        Whether to enable the paper's 5 %/period churn.
    overrides:
        Any :class:`SessionConfig` field, overriding its default (e.g.
        ``max_time=60.0`` or ``warmup="simulated"``).
    """
    overrides.setdefault(
        "churn", ChurnConfig.paper_dynamic() if dynamic else ChurnConfig.disabled()
    )
    return SessionConfig(n_nodes=n_nodes, seed=seed, algorithm=algorithm, **overrides)


def sweep_sizes(*, paper_scale: bool = False) -> Sequence[int]:
    """The network sizes to sweep: the paper's or the reduced set."""
    return PAPER_SWEEP_SIZES if paper_scale else BENCH_SWEEP_SIZES


def ratio_track_size(*, paper_scale: bool = False) -> int:
    """The overlay size for the ratio-track figures (5 and 9)."""
    return RATIO_TRACK_SIZE if paper_scale else BENCH_RATIO_TRACK_SIZE
