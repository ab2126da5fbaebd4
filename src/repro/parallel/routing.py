"""Routing policies and per-shard seed derivation for sharded ingestion.

Routing decides which shard consumes each stream point.  All three policies
are coordinator-side and fully vectorized, so a batch is partitioned into
per-shard blocks with zero per-point Python work:

* ``round_robin`` — load balancing; shard ``s`` receives the strided slice
  ``arr[offset_s :: num_shards]`` of every batch (original order preserved);
* ``hash`` — deterministic partitioning by point *content* via
  :func:`stable_row_hash`, so the assignment is reproducible across runs and
  processes and invariant to how the stream is split into batches;
* ``random`` — seeded random assignment with one vectorized draw per batch.

Shard-local randomness is derived through :func:`spawn_shard_seeds`, which
uses :class:`numpy.random.SeedSequence` spawn keys: shard ``i`` gets the same
independent stream no matter how many shards exist, and seeds can never
collide across shards or with nearby coordinator seeds (the historical
``seed + shard_index`` scheme made coordinator ``seed=0`` shard 1 share its
stream with coordinator ``seed=1`` shard 0).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

__all__ = [
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "stable_row_hash",
    "spawn_shard_seeds",
    "Router",
    "RoundRobinRouter",
    "HashRouter",
    "RandomRouter",
    "make_router",
]

RoutingPolicy = Literal["round_robin", "hash", "random"]

ROUTING_POLICIES: tuple[str, ...] = ("round_robin", "hash", "random")

# Offset applied to the coordinator seed for the random-routing generator so
# routing draws never reuse the shards' sampling streams (pre-dates the
# SeedSequence scheme; kept so random routing decisions stay reproducible
# across releases).
_ROUTE_SEED_OFFSET = 10_007

# Virtual buckets per shard for hash routing.  The identity-mod default table
# makes `table[h % (n*slots)] == h % n`, so the slot count is invisible until
# a migration moves buckets; 16 gives migrations ~6% granularity per slot.
_VIRTUAL_SLOTS_PER_SHARD = 16

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def stable_row_hash(points: np.ndarray) -> np.ndarray:
    """Process-stable 64-bit content hash of each row, fully vectorized.

    Each float64 entry is viewed as its raw 64 bits, passed through the
    splitmix64 finalizer, and folded across columns FNV-style.  Unlike
    ``hash(row.tobytes())`` (the original implementation), the result does
    not depend on ``PYTHONHASHSEED`` — identical rows hash identically in
    every process and on every run — and the only Python-level loop is one
    iteration per *column*.
    """
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"points must be 1-D or 2-D, got shape {arr.shape}")
    bits = arr.view(np.uint64)
    h = np.full(bits.shape[0], _FNV_OFFSET, dtype=np.uint64)
    for column in range(bits.shape[1]):
        x = bits[:, column].copy()
        x ^= x >> np.uint64(30)
        x *= _MIX_1
        x ^= x >> np.uint64(27)
        x *= _MIX_2
        x ^= x >> np.uint64(31)
        h ^= x
        h *= _FNV_PRIME
    return h


def spawn_shard_seeds(seed: int | None, num_shards: int) -> list[int | None]:
    """Derive one independent sampling seed per shard from the coordinator seed.

    Uses ``SeedSequence`` spawn keys, so shard ``i``'s seed depends only on
    ``(seed, i)`` — not on the total shard count — making per-shard results
    reproducible when the cluster is resized, and collision-free across both
    shards and neighbouring coordinator seeds.  ``None`` propagates (each
    shard draws fresh OS entropy).
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if seed is None:
        return [None] * num_shards
    children = np.random.SeedSequence(entropy=int(seed)).spawn(num_shards)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


class Router:
    """Base class: assigns stream points to ``num_shards`` shards.

    Routers are coordinator-side objects; they may carry state (the
    round-robin cursor, the random generator) and are therefore not shared
    between engines.
    """

    policy: str

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards

    def route_point(self, row: np.ndarray) -> int:
        """Shard index for a single point (consumes the same state as batches)."""
        raise NotImplementedError

    def split_batch(self, arr: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Partition a batch into ``(shard_index, block)`` pieces.

        Blocks preserve the arrival order of each shard's points and are
        views into ``arr`` whenever the policy allows (round-robin strides,
        boolean masks copy).  Only non-empty blocks are returned.
        """
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Checkpoint state of the router (empty for stateless policies)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore router state from :meth:`state_dict` output."""

    def reassign(self, source: int, dest: int, fraction: float) -> int:
        """Shift a fraction of ``source``'s future routing share to ``dest``.

        Returns how many internal assignment slots moved.  The default is 0:
        round-robin and random routing balance load by construction, so a
        migration needs no routing change — only content-hash routing, whose
        assignment is pinned to point values, overrides this.
        """
        return 0

    def _blocks_from_assignments(
        self, arr: np.ndarray, assignments: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        blocks: list[tuple[int, np.ndarray]] = []
        for shard_index in range(self.num_shards):
            block = arr[assignments == shard_index]
            if block.shape[0]:
                blocks.append((shard_index, block))
        return blocks


class RoundRobinRouter(Router):
    """Cycle through the shards; batches become zero-copy strided slices."""

    policy = "round_robin"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        self._next = 0

    def route_point(self, row: np.ndarray) -> int:
        """Next shard in the cycle (advances the shared cursor)."""
        index = self._next
        self._next = (self._next + 1) % self.num_shards
        return index

    def split_batch(self, arr: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Strided zero-copy slices: shard ``s`` gets ``arr[offset_s::num]``."""
        n = arr.shape[0]
        blocks: list[tuple[int, np.ndarray]] = []
        for shard_index in range(self.num_shards):
            offset = (shard_index - self._next) % self.num_shards
            block = arr[offset :: self.num_shards]
            if block.shape[0]:
                blocks.append((shard_index, block))
        self._next = (self._next + n) % self.num_shards
        return blocks

    def state_dict(self) -> dict:
        """Checkpoint state: the cycle cursor."""
        return {"next": self._next}

    def load_state(self, state: dict) -> None:
        """Restore the cycle cursor."""
        self._next = int(state["next"]) % self.num_shards


class HashRouter(Router):
    """Content-hash partitioning via :func:`stable_row_hash` and virtual buckets.

    The hash picks one of ``num_shards * _VIRTUAL_SLOTS_PER_SHARD`` virtual
    buckets; an assignment table maps virtual buckets to shards.  The default
    table is the identity-mod layout, under which ``table[h % (n*s)]`` equals
    the historical ``h % n`` — so a fresh router reproduces the pre-elastic
    assignment bit-for-bit, routing stays invariant to batch boundaries, and
    only :meth:`reassign` (shard migration) ever bends the map.
    """

    policy = "hash"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        self._table = (
            np.arange(num_shards * _VIRTUAL_SLOTS_PER_SHARD, dtype=np.intp)
            % num_shards
        )

    def route_point(self, row: np.ndarray) -> int:
        """Shard keyed by the point's content hash through the bucket table."""
        bucket = int(stable_row_hash(row)[0] % np.uint64(self._table.shape[0]))
        return int(self._table[bucket])

    def split_batch(self, arr: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """One vectorized hash pass, then a boolean-mask block per shard."""
        buckets = (
            stable_row_hash(arr) % np.uint64(self._table.shape[0])
        ).astype(np.intp)
        return self._blocks_from_assignments(arr, self._table[buckets])

    def reassign(self, source: int, dest: int, fraction: float) -> int:
        """Move ``fraction`` of ``source``'s virtual buckets to ``dest``."""
        owned = np.flatnonzero(self._table == source)
        moved = min(int(np.ceil(owned.shape[0] * fraction)), owned.shape[0])
        if moved <= 0:
            return 0
        self._table[owned[:moved]] = dest
        return moved

    def state_dict(self) -> dict:
        """Checkpoint state: the virtual-bucket assignment table."""
        return {"table": self._table.tolist()}

    def load_state(self, state: dict) -> None:
        """Restore the table (pre-elastic checkpoints keep the identity map)."""
        table = state.get("table")
        if table is not None:
            self._table = np.asarray(table, dtype=np.intp)


class RandomRouter(Router):
    """Seeded random assignment; one vectorized draw per batch."""

    policy = "random"

    def __init__(self, num_shards: int, seed: int | None = None) -> None:
        super().__init__(num_shards)
        self._rng = np.random.default_rng(
            None if seed is None else seed + _ROUTE_SEED_OFFSET
        )

    def route_point(self, row: np.ndarray) -> int:
        """One seeded draw (consumes the same stream as batch draws)."""
        return int(self._rng.integers(0, self.num_shards))

    def split_batch(self, arr: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """One vectorized draw assigns the whole batch."""
        assignments = self._rng.integers(0, self.num_shards, size=arr.shape[0])
        return self._blocks_from_assignments(arr, assignments)

    def state_dict(self) -> dict:
        """Checkpoint state: the routing generator's position."""
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        """Restore the routing generator's position."""
        from ..checkpoint.state import rng_from_state

        self._rng = rng_from_state(state["rng"])


def make_router(policy: str, num_shards: int, seed: int | None = None) -> Router:
    """Instantiate the router for ``policy`` (see :data:`ROUTING_POLICIES`)."""
    if policy == "round_robin":
        return RoundRobinRouter(num_shards)
    if policy == "hash":
        return HashRouter(num_shards)
    if policy == "random":
        return RandomRouter(num_shards, seed=seed)
    raise ValueError(
        f"unknown routing policy {policy!r}; available: {ROUTING_POLICIES}"
    )
