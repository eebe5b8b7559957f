"""Churn policy: who leaves and how many join, per scheduling period.

The policy is deliberately separated from its execution: it only draws the
random decisions (so it can be unit-tested deterministically), while the
session applies them to the overlay, the membership service and the peer
population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.clock import round_half_up

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ChurnConfig", "ChurnPlan", "ChurnModel"]


@dataclass(frozen=True)
class ChurnConfig:
    """Churn intensity.

    Attributes
    ----------
    leave_fraction:
        Fraction of eligible (non-source, non-protected) peers leaving per
        scheduling period.  The paper uses 0.05.
    join_fraction:
        Fraction (of the current eligible population) of new peers joining
        per scheduling period.  The paper uses 0.05.
    enabled:
        Convenience switch; a disabled model always produces empty plans.
    """

    leave_fraction: float = 0.05
    join_fraction: float = 0.05
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.leave_fraction <= 1.0):
            raise ValueError(f"leave_fraction must be in [0, 1], got {self.leave_fraction}")
        if not (0.0 <= self.join_fraction <= 1.0):
            raise ValueError(f"join_fraction must be in [0, 1], got {self.join_fraction}")

    @staticmethod
    def disabled() -> "ChurnConfig":
        """A churn configuration that never changes the membership."""
        return ChurnConfig(leave_fraction=0.0, join_fraction=0.0, enabled=False)

    @staticmethod
    def paper_dynamic() -> "ChurnConfig":
        """The paper's dynamic-environment setting (5% leave + 5% join)."""
        return ChurnConfig(leave_fraction=0.05, join_fraction=0.05, enabled=True)


@dataclass(frozen=True)
class ChurnPlan:
    """The churn decisions for one scheduling period."""

    leavers: tuple[int, ...] = field(default_factory=tuple)
    joins: int = 0

    @property
    def empty(self) -> bool:
        """Whether the plan changes nothing."""
        return not self.leavers and self.joins == 0


class ChurnModel:
    """Draws per-period churn plans.

    Parameters
    ----------
    config:
        Churn intensity.
    rng:
        Random generator for leaver selection and join counts.
    """

    def __init__(self, config: ChurnConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self.total_leaves = 0
        self.total_joins = 0

    def plan_round(
        self,
        eligible_ids: Sequence[int],
        *,
        leave_fraction: Optional[float] = None,
        join_fraction: Optional[float] = None,
        leave_count: Optional[int] = None,
        join_count: Optional[int] = None,
    ) -> ChurnPlan:
        """Decide which of ``eligible_ids`` leave and how many peers join.

        The expected number of leavers (joiners) is ``leave_fraction``
        (``join_fraction``) times the eligible population; the realised
        count is ``floor(expectation + 0.5)`` -- round-half-up rather than
        Python's banker's rounding, so a 10-peer population at 5 % churn
        loses one peer per period instead of zero.

        ``leave_fraction`` / ``join_fraction`` override the configured
        intensities for this round only (the workload engine's churn
        bursts); passing overrides activates churn even when the configured
        model is disabled.  ``leave_count`` / ``join_count`` override with
        *exact* realised counts instead of fractions -- the channel-zapping
        universe scripts per-period arrival/departure counts this way.  A
        count wins over a fraction; leaver counts are clamped to the
        eligible population.
        """
        overridden = (
            leave_fraction is not None or join_fraction is not None
            or leave_count is not None or join_count is not None
        )
        if (not self.config.enabled and not overridden) or not eligible_ids:
            return ChurnPlan()
        leave = self.config.leave_fraction if leave_fraction is None else float(leave_fraction)
        join = self.config.join_fraction if join_fraction is None else float(join_fraction)
        population = len(eligible_ids)
        if leave_count is not None:
            n_leave = min(max(0, int(leave_count)), population)
        else:
            n_leave = min(round_half_up(leave * population), population)
        if join_count is not None:
            n_join = max(0, int(join_count))
        else:
            n_join = round_half_up(join * population)
        leavers: List[int] = []
        if n_leave > 0:
            picked = self._rng.choice(population, size=n_leave, replace=False)
            leavers = [int(eligible_ids[int(i)]) for i in picked]
        self.total_leaves += len(leavers)
        self.total_joins += n_join
        return ChurnPlan(leavers=tuple(sorted(leavers)), joins=n_join)
