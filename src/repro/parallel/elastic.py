"""Elasticity primitives: reshard/migration reports, rebalance policy, apportionment.

The sharded engine's elasticity (live resharding and load-driven shard
migration) is sound because of the same Observation 1 that
makes sharding itself sound: a union of per-shard coresets is a coreset of
the union, so shard state is *mergeable* (collect every shard's coreset),
*splittable* (deal the union back out to any number of shards), and
*movable* (carve a slice off a hot shard and hand it to a cold one).  This
module holds the engine-independent pieces of that machinery: the report
dataclasses each elastic operation returns, the :class:`RebalancePolicy`
that decides when a migration is worth a quiesce, and the exact integer
apportionment that keeps ``points_seen`` accounting lossless through
arbitrary N→M reshard chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ReshardReport",
    "MigrationReport",
    "RebalancePolicy",
    "apportion_points",
]


@dataclass(frozen=True)
class ReshardReport:
    """Outcome of one :meth:`~repro.parallel.engine.ShardedEngine.reshard` call.

    Attributes
    ----------
    old_num_shards / new_num_shards:
        Shard counts before and after.
    coreset_points:
        Weighted points in the redistributed union coreset.
    points_represented:
        Stream points that union stands for (the engine's ``points_seen``).
    pause_seconds:
        Quiesce-to-resume wall time: the cross-shard collect barrier,
        backend teardown/rebuild, and piece adoption.  This is the window
        during which ingest is paused; the bench gate tracks it as
        ``reshard_pause_ms``.
    """

    old_num_shards: int
    new_num_shards: int
    coreset_points: int
    points_represented: int
    pause_seconds: float


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :meth:`~repro.parallel.engine.ShardedEngine.migrate` call.

    Attributes
    ----------
    source / dest:
        Shard indices the coreset slice moved between.
    moved_coreset_points:
        Weighted points in the migrated slice.
    moved_points_represented:
        Stream points the slice stands for (transferred between the two
        shards' ``points_seen`` ledgers, total preserved).
    router_slots_moved:
        Virtual routing buckets reassigned so *future* points follow the
        moved mass (0 for round-robin/random, which balance by construction).
    pause_seconds:
        Quiesce-to-resume wall time of the migration.
    """

    source: int
    dest: int
    moved_coreset_points: int
    moved_points_represented: int
    router_slots_moved: int
    pause_seconds: float


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how the engine migrates load off a hot shard.

    The engine tracks per-shard routed points since the last rebalance (the
    *window*) and consults this policy after each batch.  A migration is a
    quiesce (sync + collect), so the policy is deliberately conservative:
    nothing happens until the window holds ``min_points``, and only an
    imbalance of at least ``imbalance_ratio`` versus the window mean
    triggers a move.  Resetting the window after each migration doubles as
    the cooldown.

    Parameters
    ----------
    imbalance_ratio:
        Trigger threshold: the hottest shard's window load divided by the
        window mean must reach this (must be > 1).
    min_points:
        Window size (routed points) before the policy is consulted at all;
        also the cooldown between consecutive migrations.
    fraction:
        Fraction of the hot shard's coreset mass to move, in (0, 1].
    """

    imbalance_ratio: float = 1.5
    min_points: int = 2048
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.imbalance_ratio <= 1.0:
            raise ValueError(
                f"imbalance_ratio must be > 1, got {self.imbalance_ratio}"
            )
        if self.min_points <= 0:
            raise ValueError(f"min_points must be positive, got {self.min_points}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def decide(self, window_loads: Sequence[int]) -> tuple[int, int] | None:
        """Pick ``(hot, cold)`` shard indices to migrate between, or ``None``."""
        n = len(window_loads)
        total = sum(window_loads)
        if n < 2 or total < self.min_points:
            return None
        hot = max(range(n), key=window_loads.__getitem__)
        cold = min(range(n), key=window_loads.__getitem__)
        if hot == cold or window_loads[hot] <= window_loads[cold]:
            return None
        if window_loads[hot] * n < self.imbalance_ratio * total:
            return None
        return hot, cold


def apportion_points(weights: Sequence[float], total: int) -> list[int]:
    """Split integer ``total`` proportionally to ``weights``, exactly.

    Largest-remainder apportionment: the result sums to ``total`` exactly,
    which is what keeps ``sum(shard.points_seen) == engine.points_seen``
    through reshards (each redistributed piece is credited with the stream
    points its coreset weight represents).  Zero-sum weights fall back to an
    even split; empty ``weights`` requires ``total == 0``.
    """
    n = len(weights)
    if n == 0:
        if total:
            raise ValueError(f"cannot apportion {total} points over zero shards")
        return []
    if total <= 0:
        return [0] * n
    weight_sum = float(sum(weights))
    if weight_sum <= 0.0:
        base, extra = divmod(total, n)
        return [base + (1 if index < extra else 0) for index in range(n)]
    quotas = [total * float(w) / weight_sum for w in weights]
    counts = [int(q) for q in quotas]
    order = sorted(range(n), key=lambda i: quotas[i] - counts[i], reverse=True)
    for index in order[: total - sum(counts)]:
        counts[index] += 1
    return counts
