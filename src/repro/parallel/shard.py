"""The shard worker: one clustering structure plus its partial base bucket.

A :class:`StreamShard` is the unit of work behind every backend: the serial
backend calls it inline and the process backend builds one inside each
worker process (the construction arguments — config, index, seed, structure
name — are all picklable, so shards never cross process boundaries
themselves).

Shards communicate with the coordinator through :class:`ShardSnapshot`: the
shard-local coreset (Observation 1: the union of per-shard coresets is a
coreset of the union) plus the accounting counters the engine aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.base import StreamingConfig, coerce_batch, require_dimension
from ..core.buffer import BucketBuffer
from ..core.cached_tree import CachedCoresetTree
from ..core.coreset_tree import CoresetTree
from ..core.recursive_cache import RecursiveCachedTree
from ..coreset.bucket import Bucket, WeightedPointSet, make_base_buckets
from ..coreset.construction import CoresetConstructor
from ..kernels.sketch import sketch_for

__all__ = ["SHARD_STRUCTURES", "ShardSnapshot", "StreamShard", "make_shard"]


def _make_ct(constructor: CoresetConstructor, config: StreamingConfig, nesting_depth: int):
    return CoresetTree(constructor, merge_degree=config.merge_degree)


def _make_cc(constructor: CoresetConstructor, config: StreamingConfig, nesting_depth: int):
    return CachedCoresetTree(constructor, merge_degree=config.merge_degree)


def _make_rcc(constructor: CoresetConstructor, config: StreamingConfig, nesting_depth: int):
    return RecursiveCachedTree(constructor, nesting_depth=nesting_depth)


# Structure factories by registry name; module-level functions so that shard
# construction arguments stay picklable for the process backend.
SHARD_STRUCTURES = {"ct": _make_ct, "cc": _make_cc, "rcc": _make_rcc}


@dataclass(frozen=True)
class ShardSnapshot:
    """What one shard ships back to the coordinator at a collection barrier.

    Attributes
    ----------
    shard_index:
        Which shard produced this snapshot.
    points / weights:
        The shard-local coreset (structure coreset unioned with the partial
        base bucket); empty arrays when the shard has seen no points.
    points_seen:
        Stream points routed to this shard so far.
    stored_points:
        Weighted points held by the shard (structure plus partial bucket).
    cache_hits / cache_misses / cache_entries:
        The shard structure's coreset-cache counters (zero for CT shards).
    """

    shard_index: int
    points: np.ndarray
    weights: np.ndarray
    points_seen: int
    stored_points: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0

    @property
    def coreset(self) -> WeightedPointSet:
        """The shard-local coreset as a weighted point set."""
        return WeightedPointSet(points=self.points, weights=self.weights)


class StreamShard:
    """One shard: a clustering structure plus its partial base bucket.

    Parameters
    ----------
    config:
        Shared streaming configuration (bucket size, coreset method, ...).
    shard_index:
        This shard's position in the engine (also used in diagnostics).
    seed:
        Sampling seed for this shard's coreset constructions.  Callers should
        derive it via :func:`~repro.parallel.routing.spawn_shard_seeds`; when
        omitted it falls back to that derivation from ``config.seed``.
    structure:
        Which clustering structure backs the shard: ``"ct"``, ``"cc"``
        (default; the cheap cached per-shard query is what makes global
        queries fast), or ``"rcc"``.
    nesting_depth:
        RCC nesting depth (ignored by CT/CC shards).
    """

    def __init__(
        self,
        config: StreamingConfig,
        shard_index: int,
        seed: int | None = None,
        structure: str = "cc",
        nesting_depth: int = 3,
    ) -> None:
        if structure not in SHARD_STRUCTURES:
            raise ValueError(
                f"unknown shard structure {structure!r}; "
                f"available: {tuple(SHARD_STRUCTURES)}"
            )
        self.shard_index = shard_index
        self.config = config
        self.structure_name = structure
        self._nesting_depth = nesting_depth
        if seed is None and config.seed is not None:
            from .routing import spawn_shard_seeds

            seed = spawn_shard_seeds(config.seed, shard_index + 1)[shard_index]
        self._constructor = CoresetConstructor(config.coreset_config(), seed=seed)
        # Per-shard sketcher keyed by the shard's own spawned seed; sketches
        # stay shard-local (ShardSnapshot ships only exact points/weights).
        self._sketcher = self._constructor.sketcher
        self._structure = SHARD_STRUCTURES[structure](
            self._constructor, config, nesting_depth
        )
        self._dtype = config.np_dtype
        self._buffer = BucketBuffer(config.bucket_size, dtype=self._dtype)
        self._dimension: int | None = None
        self.points_seen = 0
        # Coreset mass adopted from elsewhere (reshard split pieces, migrated
        # hot-shard slices).  Inherited points are exact weighted points — no
        # sketch, because each shard's JL projection is keyed to its own seed
        # and cross-shard sketches would mix projection spaces.
        self._inherited: WeightedPointSet | None = None
        self._inherited_points = 0

    @property
    def structure(self):
        """The shard's clustering structure (exposed for tests)."""
        return self._structure

    def insert(self, point: np.ndarray) -> None:
        """Add one point to this shard's local state."""
        row = np.asarray(point, dtype=self._dtype).reshape(-1)
        self._dimension = require_dimension(self._dimension, row.shape[0], what="point")
        self._buffer.append(row)
        self.points_seen += 1
        if self._buffer.is_full:
            index = self._structure.num_base_buckets + 1
            block = self._buffer.drain()
            data = WeightedPointSet.from_points(
                block, sketch=sketch_for(self._sketcher, block)
            )
            self._structure.insert_bucket(
                Bucket(data=data, start=index, end=index, level=0)
            )

    def insert_batch(self, points: np.ndarray) -> None:
        """Add a batch to this shard: full buckets are sliced, not looped."""
        arr = coerce_batch(points, dtype=self._dtype)
        if arr.shape[0] == 0:
            return
        self._dimension = require_dimension(self._dimension, arr.shape[1])
        blocks = self._buffer.take_full_blocks(arr)
        self.points_seen += arr.shape[0]
        if blocks:
            self._structure.insert_buckets(
                make_base_buckets(
                    blocks,
                    self._structure.num_base_buckets + 1,
                    sketcher=self._sketcher,
                )
            )

    def local_coreset(self, dimension: int) -> WeightedPointSet:
        """This shard's contribution to a global query (cached coreset + partial bucket)."""
        coreset = self._structure.query_coreset()
        if not self._buffer.is_empty:
            block = self._buffer.snapshot()
            partial = WeightedPointSet.from_points(
                block, sketch=sketch_for(self._sketcher, block)
            )
            coreset = coreset.union(partial) if coreset.size else partial
        if self._inherited is not None and self._inherited.size:
            coreset = coreset.union(self._inherited) if coreset.size else self._inherited
        if coreset.size == 0:
            return WeightedPointSet.empty(dimension, dtype=self._dtype)
        return coreset

    def stored_points(self) -> int:
        """Points held by this shard (structure, partial bucket, inherited mass)."""
        inherited = self._inherited.size if self._inherited is not None else 0
        return self._structure.stored_points() + self._buffer.size + inherited

    # -- elasticity ----------------------------------------------------------

    def adopt(
        self, piece: WeightedPointSet, points_represented: int, reset: bool = False
    ) -> None:
        """Take ownership of a coreset piece built elsewhere (reshard/migration).

        The piece joins this shard's query contribution as inherited mass —
        sound by Observation 1, since the union of coresets is a coreset of
        the union.  ``points_represented`` is the number of stream points the
        piece stands for; it is added to :attr:`points_seen` so cross-shard
        accounting stays exact through reshards.  With ``reset=True`` the
        shard's own stream state (structure, partial bucket, previously
        inherited mass) is discarded first — the migration-source case, where
        the kept slice of the shard's coreset arrives back as ``piece``.
        """
        if reset:
            self.reset()
        if piece.size:
            self._dimension = require_dimension(self._dimension, piece.dimension)
            if piece.points.dtype != self._dtype or piece.sketch is not None:
                piece = WeightedPointSet(
                    points=np.asarray(piece.points, dtype=self._dtype),
                    weights=piece.weights,
                )
            if self._inherited is None or self._inherited.size == 0:
                self._inherited = piece
            else:
                self._inherited = self._inherited.union(piece)
        self._inherited_points += int(points_represented)
        self.points_seen += int(points_represented)

    def reset(self) -> None:
        """Discard all stream state; keep config, seed, and sampling position.

        The constructor (and its RNG position) is retained so the shard's
        sampling stream continues rather than replays — a reset shard is a
        fresh structure fed by the same entropy source.
        """
        self._structure = SHARD_STRUCTURES[self.structure_name](
            self._constructor, self.config, self._nesting_depth
        )
        self._buffer = BucketBuffer(self.config.bucket_size, dtype=self._dtype)
        self._inherited = None
        self._inherited_points = 0
        self.points_seen = 0

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint state: structure, partial bucket, and sampling streams."""
        state = {
            "points_seen": self.points_seen,
            "dimension": self._dimension,
            "buffer": self._buffer.state_dict(),
            "constructor": self._constructor.state_dict(),
            "structure": self._structure.state_dict(),
        }
        if self._inherited is not None and self._inherited.size:
            state["inherited"] = self._inherited.state_dict()
            state["inherited_points"] = self._inherited_points
        return state

    def load_state(self, state: dict) -> None:
        """Restore this shard from :meth:`state_dict` output.

        Pre-elastic state trees carry no ``inherited`` key and load as
        shards without inherited mass.
        """
        self.points_seen = int(state["points_seen"])
        self._dimension = (
            None if state["dimension"] is None else int(state["dimension"])
        )
        self._buffer.load_state(state["buffer"])
        self._constructor.load_state(state["constructor"])
        self._structure.load_state(state["structure"])
        inherited = state.get("inherited")
        self._inherited = (
            None if inherited is None else WeightedPointSet.from_state(inherited)
        )
        self._inherited_points = int(state.get("inherited_points", 0))

    def snapshot(self, dimension: int) -> ShardSnapshot:
        """Materialise the shard's coreset and counters for the coordinator."""
        coreset = self.local_coreset(dimension)
        cache = self._structure.cache_stats()
        return ShardSnapshot(
            shard_index=self.shard_index,
            points=coreset.points,
            weights=coreset.weights,
            points_seen=self.points_seen,
            stored_points=self.stored_points(),
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            cache_entries=cache.entries if cache is not None else 0,
        )


def make_shard(
    config: StreamingConfig,
    shard_index: int,
    seed: int | None,
    structure: str,
    nesting_depth: int = 3,
) -> StreamShard:
    """Default shard factory (module-level so it pickles for process workers)."""
    return StreamShard(
        config, shard_index, seed=seed, structure=structure, nesting_depth=nesting_depth
    )
