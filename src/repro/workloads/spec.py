"""Declarative workload specifications.

A :class:`WorkloadSpec` scripts a whole viewing session as an ordered list
of :class:`Phase` objects.  Each phase lasts a fixed duration and can

* trigger a **source switch** at its start (``switch=True``) -- repeated
  switch phases model channel zapping, far beyond the paper's single
  S1->S2 event;
* override the **churn intensity** for its duration (flash-crowd join
  bursts, mass departures);
* inject a one-shot **correlated failure** (a random peer and its overlay
  vicinity fail together);
* shift the **bandwidth regime** (a scale factor on upload budgets,
  modelling evening-peak congestion).

The population itself can be heterogeneous: ``peer_classes`` declares
bandwidth classes (ADSL/cable/fiber ...) that peers are drawn from, and the
workload reports carry per-class switch-time percentiles.

Specs are frozen, hashable and round-trip exactly through ``to_dict`` /
``from_dict`` -- that round trip is what the persistent result store
fingerprints, so a changed spec can never replay a stale result.

Examples
--------
>>> spec = WorkloadSpec(
...     name="mini-zap",
...     description="two quick zaps",
...     n_nodes=60,
...     phases=(Phase("zap-1", 20.0, switch=True),
...             Phase("zap-2", 20.0, switch=True)),
... )
>>> spec.n_switches
2
>>> WorkloadSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.records import from_json, to_json
from repro.streaming.config import PeerClass

__all__ = ["Phase", "PeerClass", "WorkloadSpec"]


@dataclass(frozen=True)
class Phase:
    """One scripted time window of a workload.

    Attributes
    ----------
    name:
        Phase label (appears in per-phase QoE reports).
    duration:
        Length of the phase in seconds (rounded to whole scheduling
        periods when compiled).
    switch:
        Whether a source switch fires at the start of this phase.  The
        first phase of every workload must switch (it is what starts the
        measurement timeline).
    leave_fraction / join_fraction:
        Churn intensities during this phase, overriding the workload's
        base intensities; ``None`` keeps the base.
    bandwidth_scale:
        Outbound-budget multiplier during this phase (1.0 = nominal).
    fail_fraction:
        Fraction of peers removed by a correlated failure in the phase's
        first period (0 = none).
    """

    name: str
    duration: float
    switch: bool = False
    leave_fraction: Optional[float] = None
    join_fraction: Optional[float] = None
    bandwidth_scale: float = 1.0
    fail_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase needs a non-empty name")
        if self.duration <= 0:
            raise ValueError(f"phase duration must be positive, got {self.duration}")
        for attr in ("leave_fraction", "join_fraction"):
            value = getattr(self, attr)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if self.bandwidth_scale <= 0:
            raise ValueError(
                f"bandwidth_scale must be positive, got {self.bandwidth_scale}"
            )
        if not (0.0 <= self.fail_fraction <= 1.0):
            raise ValueError(f"fail_fraction must be in [0, 1], got {self.fail_fraction}")

    @property
    def is_default_environment(self) -> bool:
        """Whether this phase changes nothing beyond the base environment."""
        return (
            self.leave_fraction is None
            and self.join_fraction is None
            and self.bandwidth_scale == 1.0
            and self.fail_fraction == 0.0
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, self-contained description of one scripted workload.

    Attributes
    ----------
    name / description:
        Identification (the library registers specs by name).
    n_nodes:
        Overlay size, including the sources of each switch.
    phases:
        The script; at least one phase, the first with ``switch=True``.
    peer_classes:
        Optional heterogeneous bandwidth classes; empty keeps the paper's
        homogeneous skewed distribution.
    tau:
        Scheduling period in seconds (phase durations are multiples of it
        after compilation).
    base_leave_fraction / base_join_fraction:
        Churn intensities that apply wherever a phase does not override
        them (0/0 = static membership, the paper's default).
    session_overrides:
        Extra :class:`~repro.streaming.session.SessionConfig` fields for
        every switch segment, as a sorted tuple of ``(field, value)`` pairs
        so the spec stays hashable (use :meth:`with_overrides` to build).
    """

    name: str
    description: str
    n_nodes: int
    phases: Tuple[Phase, ...]
    peer_classes: Tuple[PeerClass, ...] = ()
    tau: float = 1.0
    base_leave_fraction: float = 0.0
    base_join_fraction: float = 0.0
    session_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload needs a non-empty name")
        if not isinstance(self.phases, tuple):
            object.__setattr__(self, "phases", tuple(self.phases))
        if not isinstance(self.peer_classes, tuple):
            object.__setattr__(self, "peer_classes", tuple(self.peer_classes))
        # Normalise the overrides to a sorted tuple of pairs whatever the
        # caller passed (dict, list of pairs, unsorted tuple).
        object.__setattr__(
            self,
            "session_overrides",
            tuple(sorted((str(k), v) for k, v in dict(self.session_overrides).items())),
        )
        if not self.phases:
            raise ValueError("workload needs at least one phase")
        if not self.phases[0].switch:
            raise ValueError("the first phase of a workload must trigger a switch")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"phase names must be unique, got {names}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for attr in ("base_leave_fraction", "base_join_fraction"):
            value = getattr(self, attr)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{attr} must be in [0, 1], got {value}")

    # ------------------------------------------------------------------ #
    @property
    def n_switches(self) -> int:
        """How many source switches the workload scripts."""
        return sum(1 for phase in self.phases if phase.switch)

    @property
    def total_duration(self) -> float:
        """Scripted wall-clock length of the workload in seconds."""
        return float(sum(phase.duration for phase in self.phases))

    def overrides_dict(self) -> Dict[str, Any]:
        """The session-config overrides as a plain dictionary."""
        return dict(self.session_overrides)

    def with_overrides(self, **overrides: Any) -> "WorkloadSpec":
        """A copy of this spec with extra session-config overrides merged in."""
        merged = self.overrides_dict()
        merged.update(overrides)
        return replace(
            self,
            session_overrides=tuple(sorted(merged.items())),
        )

    def scaled_to(self, n_nodes: int) -> "WorkloadSpec":
        """A copy of this spec at a different overlay size."""
        return replace(self, n_nodes=int(n_nodes))

    # ------------------------------------------------------------------ #
    # dict round trip (store fingerprinting)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dictionary form; see :meth:`from_dict`.

        The record's :func:`~repro.records.to_json`, except that the
        overrides are a dict -- the form the fingerprints hash.
        """
        return {**to_json(self), "session_overrides": dict(self.session_overrides)}

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (exact round trip)."""
        overrides = tuple(payload.get("session_overrides", {}).items())
        return from_json(WorkloadSpec, {**payload, "session_overrides": overrides})
