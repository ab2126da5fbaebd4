"""The multi-core sharded ingestion engine.

:class:`ShardedEngine` is the coordinator of the parallel answer to the
paper's "clustering on distributed and parallel streams" open question.  Its
dataflow::

                      router (round_robin | hash | random)
    insert_batch ──►  split into per-shard blocks (vectorized, zero copy)
                      │
                      ▼
    bounded per-shard work queues ──► shard workers (serial | process)
                      each: BucketBuffer → CT/CC/RCC structure
                      │
    query ──────────► collect one coreset per shard (Observation 1)
                      │
                      ▼
    union of shard coresets ──► QueryEngine (warm-start Lloyd / cold k-means++)

Updates are coordination-free (each shard summarises only its own slice) and
queries are cheap because each shard serves its *cached* coreset — exactly
the decomposition that makes the union-of-coresets merge sound.  The engine
speaks the standard :class:`~repro.core.base.StreamingClusterer` contract,
including batched multi-k queries and per-query serving stats, so the
harness, CLI, and benchmarks drive it like any single-structure clusterer.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Sequence

import numpy as np

from ..core.base import (
    QueryResult,
    StreamingClusterer,
    StreamingConfig,
    coerce_batch,
    require_dimension,
    streaming_config_from_dict,
    streaming_config_to_dict,
)
from ..core.cache import CacheStats
from ..core.serving_mixin import CoresetServingMixin
from ..coreset.bucket import WeightedPointSet
from ..queries.serving import QueryStats
from .backends import BACKENDS, _ShardSpec, make_backend
from .elastic import MigrationReport, RebalancePolicy, ReshardReport, apportion_points
from .routing import ROUTING_POLICIES, make_router, spawn_shard_seeds
from .shard import SHARD_STRUCTURES, ShardSnapshot, StreamShard, make_shard

__all__ = ["ShardedEngine"]


class ShardedEngine(CoresetServingMixin, StreamingClusterer):
    """Parallel sharded ingestion with merged coreset queries.

    Parameters
    ----------
    config:
        Shared streaming configuration applied to every shard.  ``config.seed``
        also seeds the query-time randomness and (via
        :func:`~repro.parallel.routing.spawn_shard_seeds`) each shard's
        independent sampling stream.
    num_shards:
        Number of shard workers.
    routing:
        How points are assigned to shards: ``"round_robin"`` (default),
        ``"hash"`` (content-stable), or ``"random"``.
    backend:
        Executor backend: ``"serial"`` (inline, deterministic) or
        ``"process"`` (one worker process per shard with shared-memory batch
        handoff).  A lost process worker surfaces as
        :class:`~repro.parallel.backends.ShardWorkerError`; surviving it is
        the job of :class:`~repro.resilience.IngestSupervisor`, which
        rebuilds the engine from its last checkpoint plus journal replay.
    structure:
        Clustering structure each shard runs: ``"ct"``, ``"cc"`` (default),
        or ``"rcc"``.
    nesting_depth:
        RCC nesting depth for ``structure="rcc"`` shards (ignored otherwise).
    shard_factory:
        Test hook: replaces :func:`~repro.parallel.shard.make_shard` to build
        custom shard objects (must be picklable for spawn-based workers).
    rebalance:
        Optional :class:`~repro.parallel.elastic.RebalancePolicy`.  When set,
        the engine watches per-shard routed points since the last rebalance
        and migrates a slice of the hottest shard's coreset to the coldest
        shard (at a quiesce point) whenever the policy triggers.
    """

    checkpoint_name = "sharded"

    def __init__(
        self,
        config: StreamingConfig,
        num_shards: int = 4,
        routing: str = "round_robin",
        backend: str = "serial",
        structure: str = "cc",
        nesting_depth: int = 3,
        shard_factory=None,
        rebalance: RebalancePolicy | None = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; available: {ROUTING_POLICIES}"
            )
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; available: {BACKENDS}")
        if structure not in SHARD_STRUCTURES:
            raise ValueError(
                f"unknown shard structure {structure!r}; "
                f"available: {tuple(SHARD_STRUCTURES)}"
            )
        self.config = config
        self.routing = routing
        self.backend_name = backend
        self.structure_name = structure
        self._nesting_depth = nesting_depth
        self._shard_factory = (
            shard_factory if shard_factory is not None else make_shard
        )
        self._router = make_router(routing, num_shards, seed=config.seed)
        self._backend = make_backend(backend, self._build_specs(num_shards))
        # Safety net for engines dropped without close(): tears the workers
        # (and any shared-memory slabs) down when the engine is collected.
        # Referencing only the backend keeps the engine itself collectable.
        self._finalizer = weakref.finalize(self, self._backend.close)
        self._num_shards = num_shards
        self._loads = [0] * num_shards
        self._points_seen = 0
        self._dimension: int | None = None
        self._closed = False
        self._rng = np.random.default_rng(config.seed)
        self._engine = config.make_query_engine()
        self._last_query_stats: QueryStats | None = None
        self._last_snapshots: list[ShardSnapshot] | None = None
        # Elasticity: one re-entrant lock serializes ingest/queries against
        # reshard/migration, so a serving plane (or any concurrent
        # caller) always observes the engine either fully before or fully
        # after an elastic operation.
        self._elastic_lock = threading.RLock()
        self._rebalance = rebalance
        self._window_loads = [0] * num_shards
        self._reshard_history: list[ReshardReport] = []
        self._migration_history: list[MigrationReport] = []

    def _build_specs(self, num_shards: int) -> list[_ShardSpec]:
        seeds = spawn_shard_seeds(self.config.seed, num_shards)
        return [
            _ShardSpec(
                config=self.config,
                shard_index=index,
                seed=seeds[index],
                structure=self.structure_name,
                nesting_depth=self._nesting_depth,
                factory=self._shard_factory,
            )
            for index in range(num_shards)
        ]

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the backend workers (idempotent; serial is a no-op)."""
        if self._closed:
            return
        self._closed = True
        # Runs backend.close() exactly once and disarms the GC safety net.
        self._finalizer()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedEngine is closed")

    # -- introspection -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shard workers."""
        return self._num_shards

    @property
    def points_seen(self) -> int:
        """Total number of points routed across all shards."""
        return self._points_seen

    @property
    def dimension(self) -> int | None:
        """Dimensionality of the stream (None until the first point arrives)."""
        return self._dimension

    @property
    def shards(self) -> list[StreamShard]:
        """In-process shard objects (serial only; process raises)."""
        return self._backend.shards

    def _broadcast(self, op: str, arg=None) -> list:
        """Run one shard op on every shard at once; replies in shard order."""
        replies = self._backend.call(op, dict.fromkeys(range(self._num_shards), arg))
        return [replies[index] for index in range(self._num_shards)]

    def shard_loads(self) -> list[int]:
        """Points routed to each shard (for load-balance inspection)."""
        return list(self._loads)

    def flush(self) -> None:
        """Barrier: block until every queued insert has been applied."""
        with self._elastic_lock:
            self._require_open()
            self._broadcast("sync")

    def last_snapshots(self) -> list[ShardSnapshot] | None:
        """Per-shard snapshots gathered by the most recent query (None before one)."""
        return self._last_snapshots

    def cache_stats(self) -> CacheStats | None:
        """Coreset-cache counters aggregated across shards (from the last query).

        ``None`` for cache-less shard structures (CT) and before the first
        query, mirroring :meth:`~repro.core.base.ClusteringStructure.cache_stats`.
        """
        if self.structure_name == "ct" or self._last_snapshots is None:
            return None
        total = CacheStats()
        for snapshot in self._last_snapshots:
            total = total.merged_with(
                CacheStats(
                    hits=snapshot.cache_hits,
                    misses=snapshot.cache_misses,
                    entries=snapshot.cache_entries,
                )
            )
        return total

    # -- ingestion -----------------------------------------------------------

    def insert(self, point: np.ndarray) -> None:
        """Route one point to its shard (same router state as batches).

        The row is copied before submission, so the caller may freely reuse
        its buffer — matching every other ``insert()`` in the package even
        when the backend applies the row asynchronously.
        """
        with self._elastic_lock:
            self._require_open()
            row = np.array(point, dtype=self.config.np_dtype, copy=True).reshape(-1)
            self._dimension = require_dimension(
                self._dimension, row.shape[0], what="point"
            )
            shard_index = self._router.route_point(row)
            self._backend.submit(shard_index, row.reshape(1, -1))
            self._loads[shard_index] += 1
            self._window_loads[shard_index] += 1
            self._points_seen += 1

    def insert_batch(self, points: np.ndarray) -> None:
        """Partition a batch across the shards and enqueue the blocks.

        Routing is fully vectorized for every policy (round-robin strided
        slices, stable content hash, one random draw per batch).  With the
        serial backend, blocks are handed over by reference — the caller
        must not mutate the array afterwards (the same aliasing contract as
        :meth:`~repro.core.driver.StreamClusterDriver.insert_batch`).
        """
        with self._elastic_lock:
            self._require_open()
            arr = coerce_batch(points, dtype=self.config.np_dtype)
            n = arr.shape[0]
            if n == 0:
                return
            self._dimension = require_dimension(self._dimension, arr.shape[1])
            for shard_index, block in self._router.split_batch(arr):
                self._backend.submit(shard_index, block)
                self._loads[shard_index] += block.shape[0]
                self._window_loads[shard_index] += block.shape[0]
            self._points_seen += n
            if self._rebalance is not None:
                self._maybe_rebalance()

    # -- elasticity: live resharding ------------------------------------------

    def reshard(self, new_num_shards: int) -> ReshardReport:
        """Live-reshard N→M shards at a quiesce point, losslessly.

        Quiesces by collecting every shard's local coreset (a barrier:
        structure coreset ∪ partial-bucket tail — nothing in flight is
        lost), unions them (Observation 1), tears the old backend down,
        and deals the union back out to ``new_num_shards`` fresh shards as
        inherited mass, splitting round-robin so every piece carries a
        cross-section of the stream.  The router is rebuilt for the new
        count (``spawn_shard_seeds`` is shard-count-stable, so shard ``i``'s
        sampling stream is the same one it would have had in a fresh
        M-shard engine) and ``points_seen`` is re-apportioned exactly across
        the new shards in proportion to inherited coreset weight.
        """
        with self._elastic_lock:
            self._require_open()
            if new_num_shards <= 0:
                raise ValueError("new_num_shards must be positive")
            start = time.perf_counter()
            old_num_shards = self._num_shards
            dimension = self._dimension if self._dimension is not None else 1
            snapshots = self._broadcast("collect", dimension)
            union = WeightedPointSet.union_all(
                [s.coreset for s in snapshots if s.points.shape[0]],
                dimension=dimension,
            )
            self._finalizer.detach()
            self._backend.close()
            self._backend = make_backend(
                self.backend_name, self._build_specs(new_num_shards)
            )
            self._finalizer = weakref.finalize(self, self._backend.close)
            self._router = make_router(
                self.routing, new_num_shards, seed=self.config.seed
            )
            self._num_shards = new_num_shards
            pieces = [
                WeightedPointSet(
                    points=union.points[index::new_num_shards],
                    weights=union.weights[index::new_num_shards],
                )
                for index in range(new_num_shards)
            ]
            counts = apportion_points(
                [piece.total_weight for piece in pieces], self._points_seen
            )
            for index, (piece, represented) in enumerate(zip(pieces, counts)):
                if piece.size == 0 and represented == 0:
                    continue
                self._backend.call("adopt", {index: (piece, represented, False)})
            self._loads = list(counts)
            self._window_loads = [0] * new_num_shards
            self._last_snapshots = None
            report = ReshardReport(
                old_num_shards=old_num_shards,
                new_num_shards=new_num_shards,
                coreset_points=union.size,
                points_represented=self._points_seen,
                pause_seconds=time.perf_counter() - start,
            )
            self._reshard_history.append(report)
            return report

    @property
    def reshard_history(self) -> list[ReshardReport]:
        """Reports of every :meth:`reshard` performed (oldest first)."""
        return list(self._reshard_history)

    # -- elasticity: load-driven migration ------------------------------------

    def migrate(
        self, source: int, dest: int, fraction: float = 0.5
    ) -> MigrationReport:
        """Move a slice of ``source``'s coreset mass to ``dest`` at a quiesce.

        The slice is an evenly strided ``fraction`` of the source shard's
        local coreset (so it carries a cross-section, not a time-prefix).
        The source is reset and re-adopts its kept slice; the destination
        adopts the moved slice on top of its own state; ``points_seen``
        moves between the two ledgers proportionally to coreset weight, so
        totals are preserved exactly.  Hash routing also reassigns virtual
        buckets so *future* points follow the moved mass.
        """
        with self._elastic_lock:
            self._require_open()
            if not 0 <= source < self._num_shards:
                raise ValueError(f"source shard {source} out of range")
            if not 0 <= dest < self._num_shards:
                raise ValueError(f"dest shard {dest} out of range")
            if source == dest:
                raise ValueError("source and dest must differ")
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"fraction must be in (0, 1], got {fraction}")
            start = time.perf_counter()
            dimension = self._dimension if self._dimension is not None else 1
            snapshots = self._broadcast("collect", dimension)
            coreset = snapshots[source].coreset
            move = np.zeros(coreset.size, dtype=bool)
            target = int(round(coreset.size * fraction))
            if target > 0 and coreset.size > 0:
                move[
                    np.unique(
                        np.linspace(0, coreset.size - 1, target)
                        .round()
                        .astype(np.intp)
                    )
                ] = True
            moved_weight = float(np.sum(coreset.weights[move]))
            kept_weight = float(np.sum(coreset.weights[~move]))
            source_points = snapshots[source].points_seen
            moved_represented, kept_represented = apportion_points(
                [moved_weight, kept_weight], source_points
            )
            kept = WeightedPointSet(points=coreset.points[~move], weights=coreset.weights[~move])
            moved = WeightedPointSet(points=coreset.points[move], weights=coreset.weights[move])
            self._backend.call("adopt", {source: (kept, kept_represented, True)})
            self._backend.call("adopt", {dest: (moved, moved_represented, False)})
            slots = self._router.reassign(source, dest, fraction)
            self._loads[source] -= moved_represented
            self._loads[dest] += moved_represented
            self._window_loads = [0] * self._num_shards
            self._last_snapshots = None
            report = MigrationReport(
                source=source,
                dest=dest,
                moved_coreset_points=int(np.count_nonzero(move)),
                moved_points_represented=moved_represented,
                router_slots_moved=slots,
                pause_seconds=time.perf_counter() - start,
            )
            self._migration_history.append(report)
            return report

    def _maybe_rebalance(self) -> None:
        decision = self._rebalance.decide(self._window_loads)
        if decision is None:
            return
        source, dest = decision
        self.migrate(source, dest, fraction=self._rebalance.fraction)

    @property
    def migration_history(self) -> list[MigrationReport]:
        """Reports of every migration performed (oldest first)."""
        return list(self._migration_history)

    # -- queries (through the shared serving pipeline) ------------------------

    def query(self) -> QueryResult:
        """Merge every shard's coreset and extract ``k`` centers globally."""
        with self._elastic_lock:
            self._require_open()
            return self._serve_query(self.config.k)

    def query_multi_k(self, ks: Sequence[int]) -> dict[int, QueryResult]:
        """Answer a batched k-sweep from ONE cross-shard coreset collection."""
        with self._elastic_lock:
            self._require_open()
            return self._serve_multi_k(ks)

    def _coreset_pieces(self) -> WeightedPointSet:
        """Collect one coreset per shard and union them (Observation 1)."""
        with self._elastic_lock:
            dimension = self._dimension or 1
            snapshots = self._broadcast("collect", dimension)
            self._last_snapshots = snapshots
            pieces = [
                snapshot.coreset for snapshot in snapshots if snapshot.points.shape[0]
            ]
            return WeightedPointSet.union_all(pieces, dimension=dimension)

    def collect_serving_snapshot(self) -> tuple[WeightedPointSet, CacheStats | None]:
        """Writer-plane snapshot assembly (union of per-shard coresets).

        ``collect`` is a worker barrier on the process backend, so
        the published snapshot reflects every insert submitted before the
        publish — the serving plane's ingest lock keeps this writer-only.
        The elastic lock additionally serializes it against a concurrent
        :meth:`reshard`/:meth:`migrate`, so a mid-reshard engine is never
        observed half-built.
        """
        with self._elastic_lock:
            self._require_open()
            return super().collect_serving_snapshot()

    def _structure_cache_stats(self) -> CacheStats | None:
        return self.cache_stats()

    def _answered_from_cache(self) -> bool:
        # CC/RCC shards serve their cached coresets — the merge never
        # re-walks the full trees.  CT shards have no cache and re-merge.
        return self.structure_name != "ct"

    # -- accounting ----------------------------------------------------------

    def stored_points(self) -> int:
        """Total weighted points held across all shards."""
        with self._elastic_lock:
            self._require_open()
            return sum(self._broadcast("stored_points"))

    # -- checkpointing -------------------------------------------------------

    def _config_tree(self) -> dict:
        # The executor backend is deliberately NOT part of the fingerprinted
        # config: a snapshot taken on one backend restores onto any other.
        return {
            "streaming": streaming_config_to_dict(self.config),
            "num_shards": self._num_shards,
            "routing": self.routing,
            "structure": self.structure_name,
            "nesting_depth": self._nesting_depth,
        }

    def _runtime_tree(self) -> dict:
        return {"backend": self.backend_name}

    def _state_tree(self) -> dict:
        from ..checkpoint.state import rng_state

        with self._elastic_lock:
            self._require_open()
            # Quiesce: apply every queued insert before cutting the snapshot,
            # so coordinator counters and shard states describe the same
            # stream position.  (_shard_trees below captures the workers.)
            self._broadcast("sync")
            return {
                "points_seen": self._points_seen,
                "dimension": self._dimension,
                "loads": list(self._loads),
                "rng": rng_state(self._rng),
                "engine": self._engine.state_dict(),
                "router": self._router.state_dict(),
            }

    def _shard_trees(self) -> list[dict]:
        with self._elastic_lock:
            self._require_open()
            return self._broadcast("state_dump")

    @classmethod
    def _from_checkpoint(cls, manifest, state, shards, **overrides):
        from ..checkpoint import CheckpointError
        from ..checkpoint.state import rng_from_state

        unknown = set(overrides) - {"backend"}
        if unknown:
            raise CheckpointError(
                f"{cls.__name__} only supports the 'backend' restore override, "
                f"got {sorted(unknown)}"
            )
        config_tree = manifest["config"]
        runtime = manifest.get("runtime", {})
        num_shards = int(config_tree["num_shards"])
        if shards is None or len(shards) != num_shards:
            raise CheckpointError(
                f"checkpoint holds {0 if shards is None else len(shards)} shard "
                f"sub-snapshots but the manifest declares {num_shards} shards"
            )
        backend = overrides.get("backend") or runtime.get("backend")
        if backend not in BACKENDS and "backend" not in overrides:
            # A transport this release no longer has (older releases had a
            # third one): shard state is transport-independent, so restore
            # on the inline reference.
            backend = "serial"
        engine = cls(
            streaming_config_from_dict(config_tree["streaming"]),
            num_shards=num_shards,
            routing=config_tree["routing"],
            backend=backend,
            structure=config_tree["structure"],
            nesting_depth=int(config_tree["nesting_depth"]),
        )
        try:
            engine._points_seen = int(state["points_seen"])
            engine._dimension = (
                None if state["dimension"] is None else int(state["dimension"])
            )
            engine._loads = [int(load) for load in state["loads"]]
            engine._rng = rng_from_state(state["rng"])
            engine._engine.load_state(state["engine"])
            engine._router.load_state(state["router"])
            engine._backend.call("state_load", dict(enumerate(shards)))
        except BaseException:
            engine.close()
            raise
        return engine

    # -- compatibility -------------------------------------------------------

    def _route(self, point: np.ndarray) -> int:
        """Shard index one point would be routed to (diagnostics and tests).

        The row is coerced to the configured storage dtype BEFORE routing —
        the same coercion :meth:`insert` applies — so under
        ``dtype="float32"`` with hash routing this names the shard the point
        actually lands on (hashing the raw float64 row could disagree with
        the quantized row's hash).
        """
        row = np.asarray(point, dtype=self.config.np_dtype).reshape(-1)
        return self._router.route_point(row)
