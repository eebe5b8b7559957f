"""Deterministic shard planning for universe runs.

A universe run of ``R`` repetitions over an ``N``-channel lineup is
``R x N`` independent *work units* -- channel meshes that never read each
other's state (see :mod:`repro.channels.universe`).  A :class:`ShardPlan`
partitions those units into a fixed number of shards **deterministically**:
the plan is a pure function of ``(spec, rep_seeds, n_shards)``, so the
parent process, every worker, and a resumed run after an interruption all
derive the identical partition locally.  That determinism is what makes
the checkpoint journal (:mod:`repro.dist.journal`) sound: a journaled
shard id names the same unit set in every process that ever computes it.

Units are ordered ``(repetition, channel)`` and dealt round-robin across
shards.  Zipf lineups are heavily skewed -- channel 0 can hold an order of
magnitude more viewers than the tail -- and round-robin spreads the big
channels of every repetition across different shards, keeping shard wall
times comparable without needing cost estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.channels.universe import UniverseSpec

__all__ = ["ShardUnit", "Shard", "ShardPlan"]


@dataclass(frozen=True)
class ShardUnit:
    """One independent work unit: a single channel of a single repetition."""

    rep_seed: int
    channel: int


@dataclass(frozen=True)
class Shard:
    """One shard: an id plus its ordered work units."""

    shard_id: int
    units: Tuple[ShardUnit, ...]

    def __len__(self) -> int:
        return len(self.units)

    @property
    def rep_seeds(self) -> Tuple[int, ...]:
        """The distinct repetition seeds this shard touches, in unit order."""
        seen: List[int] = []
        for unit in self.units:
            if unit.rep_seed not in seen:
                seen.append(unit.rep_seed)
        return tuple(seen)


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic partition of one universe run into shards.

    Built over the run's **complete** repetition list (never the subset
    still pending against a store), so the shard ids -- and therefore the
    journal -- stay stable across resumes regardless of how many
    repetitions already persisted.
    """

    spec: UniverseSpec
    rep_seeds: Tuple[int, ...]
    n_shards: int
    shards: Tuple[Shard, ...]

    @staticmethod
    def build(
        spec: UniverseSpec, rep_seeds: Sequence[int], n_shards: int
    ) -> "ShardPlan":
        """Partition ``len(rep_seeds) x spec.n_channels`` units into shards.

        ``n_shards`` is clamped to the unit count (a shard is never empty).
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not rep_seeds:
            raise ValueError("rep_seeds must not be empty")
        units = [
            ShardUnit(rep_seed=int(rep_seed), channel=channel)
            for rep_seed in rep_seeds
            for channel in range(spec.n_channels)
        ]
        n_shards = min(int(n_shards), len(units))
        shards = tuple(
            Shard(shard_id=index, units=tuple(units[index::n_shards]))
            for index in range(n_shards)
        )
        return ShardPlan(
            spec=spec,
            rep_seeds=tuple(int(seed) for seed in rep_seeds),
            n_shards=n_shards,
            shards=shards,
        )

    # ------------------------------------------------------------------ #
    @property
    def n_units(self) -> int:
        """Total work units across all shards."""
        return len(self.rep_seeds) * self.spec.n_channels

    def shard_of(self, unit: ShardUnit) -> int:
        """The shard id holding ``unit``."""
        try:
            rep_index = self.rep_seeds.index(unit.rep_seed)
        except ValueError:
            raise KeyError(f"unknown rep_seed {unit.rep_seed}") from None
        if not (0 <= unit.channel < self.spec.n_channels):
            raise KeyError(f"unknown channel {unit.channel}")
        return (rep_index * self.spec.n_channels + unit.channel) % self.n_shards

    def fingerprint(self, *, version: Optional[str] = None) -> str:
        """Stable identity of this plan (the journal's run key).

        Covers the full spec, every repetition seed, the shard count, the
        store schema and the code version -- any change that could alter
        what a shard id means retires the journal instead of corrupting a
        resume.
        """
        from repro.experiments.store import SCHEMA_VERSION, code_version, stable_hash

        return "shardplan-" + stable_hash(
            {
                "kind": "shardplan",
                "schema": SCHEMA_VERSION,
                "code_version": version if version is not None else code_version(),
                "spec": self.spec.to_dict(),
                "rep_seeds": list(self.rep_seeds),
                "n_shards": self.n_shards,
            }
        )
