"""Named end-to-end scenarios: thin wrappers over workload-library specs.

A scenario binds a human-readable story (the application settings the
paper's introduction motivates) to a spec from
:mod:`repro.workloads.library`, optionally resized or re-parameterised.
Everything a scenario *runs* goes through the workload engine -- paired
fast-vs-normal execution, the persistent result store, parallel
repetitions -- so ``repro scenario`` enjoys the same replay/compare
machinery as ``repro workload``.

* ``video-conference`` -- a 300-participant conference whose speaker
  changes repeatedly (the ``zapping`` workload with static membership).
* ``distance-education`` -- an 800-student lecture with 5 %/period churn
  during one lecturer hand-over (the ``paper-baseline`` workload, resized).
* ``flash-crowd`` -- a 500-node premiere under tight bandwidth and a large
  startup window (the ``flash-crowd`` workload, stressed).

:meth:`Scenario.config` materialises a single
:class:`~repro.streaming.session.SessionConfig` -- the scenario's first
switch segment -- for callers that want one session rather than the whole
scripted workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.streaming.session import SessionConfig
from repro.workloads.library import get_workload
from repro.workloads.runner import segment_config
from repro.workloads.schedule import compile_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["Scenario", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """A named wrapper around a workload-library spec.

    Attributes
    ----------
    name / description:
        Scenario identification (what the CLI lists and prints).
    workload:
        Name of the underlying spec in the workload library.
    spec_overrides:
        ``WorkloadSpec`` fields replaced on the library spec (e.g.
        ``n_nodes``, ``base_leave_fraction``), as sorted pairs so the
        scenario stays hashable.
    session_overrides:
        Extra :class:`SessionConfig` fields merged into the spec's
        session overrides (e.g. ``inbound_mean``).
    """

    name: str
    description: str
    workload: str
    spec_overrides: Tuple[Tuple[str, Any], ...] = ()
    session_overrides: Tuple[Tuple[str, Any], ...] = ()

    def spec(self) -> WorkloadSpec:
        """Materialise the scenario into its workload spec."""
        spec = get_workload(self.workload)
        overrides = dict(self.spec_overrides)
        if overrides:
            spec = replace(spec, **overrides)
        extra = dict(self.session_overrides)
        if extra:
            spec = spec.with_overrides(**extra)
        return spec

    @property
    def n_nodes(self) -> int:
        """Overlay size of the resolved spec."""
        return self.spec().n_nodes

    @property
    def dynamic(self) -> bool:
        """Whether the scenario has base (ambient) churn."""
        spec = self.spec()
        return spec.base_leave_fraction > 0 or spec.base_join_fraction > 0

    @property
    def n_switches(self) -> int:
        """How many source switches the scenario scripts."""
        return self.spec().n_switches

    def config(self, *, algorithm: str = "fast", seed: int = 0) -> SessionConfig:
        """The session configuration of the scenario's first switch segment."""
        spec = self.spec()
        schedule = compile_workload(spec)
        return segment_config(spec, schedule.segments[0], seed, algorithm=algorithm)


SCENARIOS: Dict[str, Scenario] = {
    "video-conference": Scenario(
        name="video-conference",
        description=(
            "A 300-participant conference; the speaker changes repeatedly and "
            "every participant must switch to each new speaker's stream quickly "
            "(static membership)."
        ),
        workload="zapping",
        spec_overrides=(
            ("base_join_fraction", 0.0),
            ("base_leave_fraction", 0.0),
            ("n_nodes", 300),
        ),
    ),
    "distance-education": Scenario(
        name="distance-education",
        description=(
            "An 800-student lecture with students joining and leaving "
            "(5% per scheduling period) while the lecturer hands over."
        ),
        workload="paper-baseline",
        spec_overrides=(("n_nodes", 800),),
    ),
    "flash-crowd": Scenario(
        name="flash-crowd",
        description=(
            "A 500-node premiere under tight bandwidth (mean inbound 12 "
            "segments/s), a large startup window (Qs=80) and a 30%/period "
            "joining rush after the switch."
        ),
        workload="flash-crowd",
        spec_overrides=(("n_nodes", 500), ("peer_classes", ())),
        session_overrides=(
            ("inbound_mean", 12.0),
            ("outbound_mean", 12.0),
            ("startup_quota_new", 80),
        ),
    ),
}
