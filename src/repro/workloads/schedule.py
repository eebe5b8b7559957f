"""Compile a workload spec into deterministic per-period directives.

A :class:`~repro.workloads.spec.WorkloadSpec` is a list of phases; the
simulator executes *switch segments* -- one
:class:`~repro.streaming.session.SwitchSession` per switch phase, covering
that phase plus every following non-switch phase.  :func:`compile_workload`
performs that grouping and turns each phase's environment knobs into a map
``period index -> PeriodDirective`` that the session consumes verbatim
(see ``SwitchSession(..., directives=...)``).

Compilation is pure arithmetic: the same spec always compiles to the same
schedule, which (together with the deterministically seeded sessions) is
what makes whole workloads replayable and bit-identical under parallel
execution.

Examples
--------
>>> from repro.workloads.spec import Phase, WorkloadSpec
>>> spec = WorkloadSpec(
...     name="demo", description="", n_nodes=60,
...     phases=(Phase("zap", 10.0, switch=True),
...             Phase("burst", 5.0, leave_fraction=0.2)))
>>> schedule = compile_workload(spec)
>>> len(schedule.segments)
1
>>> schedule.segments[0].n_periods
15
>>> sorted(schedule.segments[0].directive_map())
[11, 12, 13, 14, 15]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.clock import round_half_up
from repro.streaming.config import PeriodDirective
from repro.workloads.spec import Phase, WorkloadSpec

__all__ = ["PhaseWindow", "SegmentPlan", "WorkloadSchedule", "compile_workload"]


@dataclass(frozen=True)
class PhaseWindow:
    """Where one phase sits inside its segment's timeline.

    Periods are 1-based; period ``k`` covers ``((k-1)*tau, k*tau]`` and the
    window spans ``first_period .. last_period`` inclusive.  ``start`` and
    ``end`` are the corresponding times in seconds from the segment's
    switch instant.
    """

    name: str
    first_period: int
    last_period: int
    start: float
    end: float


@dataclass(frozen=True)
class SegmentPlan:
    """One switch segment: a switch phase plus its trailing environment phases."""

    index: int
    switch_phase: str
    n_periods: int
    duration: float
    windows: Tuple[PhaseWindow, ...]
    directives: Tuple[Tuple[int, PeriodDirective], ...]

    def directive_map(self) -> Dict[int, PeriodDirective]:
        """The directives as the mapping :class:`SwitchSession` expects."""
        return dict(self.directives)

    def qoe_windows(self) -> List[Tuple[str, float, float]]:
        """``(phase, start, end)`` triples for :func:`repro.metrics.qoe.phase_qoe`."""
        return [(w.name, w.start, w.end) for w in self.windows]


@dataclass(frozen=True)
class WorkloadSchedule:
    """The compiled form of a workload: an ordered tuple of switch segments."""

    workload: str
    tau: float
    segments: Tuple[SegmentPlan, ...]

    @property
    def n_switches(self) -> int:
        """One switch per segment."""
        return len(self.segments)

    @property
    def total_periods(self) -> int:
        """Scheduling periods across all segments."""
        return sum(segment.n_periods for segment in self.segments)


def _phase_periods(phase: Phase, tau: float) -> int:
    """Whole scheduling periods a phase covers (at least one)."""
    return max(1, round_half_up(phase.duration / tau))


def _phase_directive(phase: Phase, *, first_period_of_phase: bool) -> PeriodDirective:
    return PeriodDirective(
        leave_fraction=phase.leave_fraction,
        join_fraction=phase.join_fraction,
        bandwidth_scale=phase.bandwidth_scale,
        fail_fraction=phase.fail_fraction if first_period_of_phase else 0.0,
        phase=phase.name,
    )


def compile_workload(spec: WorkloadSpec) -> WorkloadSchedule:
    """Compile ``spec`` into its deterministic :class:`WorkloadSchedule`.

    Grouping: every ``switch=True`` phase opens a new segment; the
    following non-switch phases ride in the same session (their churn
    bursts and congestion windows hit the mesh while it is still absorbing
    the switch).  Directives are emitted only for periods whose environment
    differs from the base (override fractions, a non-unit bandwidth scale,
    or a correlated failure in the phase's first period), keeping the maps
    small.
    """
    segments: List[SegmentPlan] = []
    groups: List[List[Phase]] = []
    for phase in spec.phases:
        if phase.switch:
            groups.append([phase])
        else:
            # spec validation guarantees the first phase switches
            groups[-1].append(phase)

    for index, group in enumerate(groups):
        windows: List[PhaseWindow] = []
        directives: List[Tuple[int, PeriodDirective]] = []
        period = 0
        for phase in group:
            n_periods = _phase_periods(phase, spec.tau)
            first = period + 1
            last = period + n_periods
            windows.append(
                PhaseWindow(
                    name=phase.name,
                    first_period=first,
                    last_period=last,
                    start=(first - 1) * spec.tau,
                    end=last * spec.tau,
                )
            )
            if not phase.is_default_environment:
                for p in range(first, last + 1):
                    directive = _phase_directive(
                        phase, first_period_of_phase=(p == first)
                    )
                    if directive.is_neutral:
                        # e.g. a fail-only phase: periods after the first
                        # carry no environment change.
                        continue
                    directives.append((p, directive))
            period = last
        segments.append(
            SegmentPlan(
                index=index,
                switch_phase=group[0].name,
                n_periods=period,
                duration=period * spec.tau,
                windows=tuple(windows),
                directives=tuple(directives),
            )
        )
    return WorkloadSchedule(workload=spec.name, tau=spec.tau, segments=tuple(segments))
