"""Named experiment configurations.

The paper's evaluation parameters (Section 5.1) are encoded once here and
reused by the figure builders, the examples and the CLI.  Two sweeps are
provided:

* :data:`PAPER_SWEEP_SIZES` -- the overlay sizes of Figures 6--8 and 10--12
  (100 to 8000 nodes),
* :data:`BENCH_SWEEP_SIZES` -- the reduced default sweep, so that the
  figure suite completes in minutes on a laptop; the full sweep is one
  flag away (``repro-gossip figure 7 --paper-scale``,
  ``paper_scale=True`` in the API).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.churn.model import ChurnConfig
from repro.streaming.config import SessionConfig

__all__ = [
    "PAPER_SWEEP_SIZES",
    "BENCH_SWEEP_SIZES",
    "RATIO_TRACK_SIZE",
    "BENCH_RATIO_TRACK_SIZE",
    "ExperimentDefaults",
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


@dataclass(frozen=True)
class ExperimentDefaults:
    """The paper's simulation parameters (Section 5.1).

    Attributes mirror :class:`repro.streaming.config.SessionConfig`; this
    object exists so experiments, docs and tests quote a single source of
    truth for "the paper's settings".
    """

    min_degree: int = 5
    play_rate: float = 10.0
    buffer_capacity: int = 600
    tau: float = 1.0
    startup_quota_old: int = 10
    startup_quota_new: int = 50
    inbound_low: float = 10.0
    inbound_high: float = 33.0
    inbound_mean: float = 15.0
    outbound_low: float = 10.0
    outbound_high: float = 33.0
    outbound_mean: float = 15.0
    churn_leave_fraction: float = 0.05
    churn_join_fraction: float = 0.05
    extra_session_kwargs: Mapping[str, object] = field(default_factory=dict)

    def session_kwargs(self) -> dict:
        """Keyword arguments for :class:`SessionConfig` (without size/seed)."""
        kwargs = dict(
            min_degree=self.min_degree,
            play_rate=self.play_rate,
            buffer_capacity=self.buffer_capacity,
            tau=self.tau,
            startup_quota_old=self.startup_quota_old,
            startup_quota_new=self.startup_quota_new,
            inbound_low=self.inbound_low,
            inbound_high=self.inbound_high,
            inbound_mean=self.inbound_mean,
            outbound_low=self.outbound_low,
            outbound_high=self.outbound_high,
            outbound_mean=self.outbound_mean,
        )
        kwargs.update(self.extra_session_kwargs)
        return kwargs


#: Module-level singleton with the paper's defaults.
PAPER_DEFAULTS = ExperimentDefaults()


def make_session_config(
    n_nodes: int,
    *,
    algorithm: str = "fast",
    seed: int = 0,
    dynamic: bool = False,
    defaults: Optional[ExperimentDefaults] = None,
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
    defaults:
        Base parameter set (defaults to the paper's).
    overrides:
        Any :class:`SessionConfig` field, overriding the defaults (e.g.
        ``max_time=60.0`` or ``warmup="simulated"``).
    """
    defaults = defaults or PAPER_DEFAULTS
    kwargs = defaults.session_kwargs()
    kwargs.update(overrides)
    churn = (
        ChurnConfig(
            leave_fraction=defaults.churn_leave_fraction,
            join_fraction=defaults.churn_join_fraction,
            enabled=True,
        )
        if dynamic
        else ChurnConfig.disabled()
    )
    kwargs.setdefault("churn", churn)
    return SessionConfig(n_nodes=n_nodes, seed=seed, algorithm=algorithm, **kwargs)


def sweep_sizes(*, paper_scale: bool = False) -> Sequence[int]:
    """The network sizes to sweep: the paper's or the reduced set."""
    return PAPER_SWEEP_SIZES if paper_scale else BENCH_SWEEP_SIZES


def ratio_track_size(*, paper_scale: bool = False) -> int:
    """The overlay size for the ratio-track figures (5 and 9)."""
    return RATIO_TRACK_SIZE if paper_scale else BENCH_RATIO_TRACK_SIZE
