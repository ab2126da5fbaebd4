"""Multi-core sharded ingestion engine for parallel streams.

Observation 1 of the paper (a union of coresets is a coreset of the union)
makes shard-local updates embarrassingly parallel with a cheap merge at query
time.  This package runs that decomposition as a real parallel engine:

* :mod:`repro.parallel.routing` — the routing policies (round-robin, stable
  content hash, seeded random) that partition a stream across shards, plus
  the per-shard seed derivation;
* :mod:`repro.parallel.shard` — the shard worker state (one clustering
  structure plus its partial base bucket) and the snapshot it ships back to
  the coordinator;
* :mod:`repro.parallel.backends` — one shard-op dispatcher over two
  transports: ``serial`` (inline; the deterministic bitwise reference) and
  ``process`` (one worker process per shard with shared-memory ndarray
  handoff, so point batches are never pickled);
* :mod:`repro.parallel.engine` — :class:`~repro.parallel.engine.ShardedEngine`,
  the user-facing coordinator that routes batches, keeps the bounded work
  queues fed, and answers queries by merging one coreset per shard through
  the warm-startable :class:`~repro.queries.serving.QueryEngine`;
* :mod:`repro.parallel.elastic` — elasticity primitives: the
  :class:`~repro.parallel.elastic.RebalancePolicy` behind load-driven shard
  migration, the reports returned by live resharding
  (:meth:`~repro.parallel.engine.ShardedEngine.reshard`) and migration, and
  the exact apportionment that keeps
  ``points_seen`` accounting lossless through N→M reshard chains.
"""

from .backends import ShardWorkerError
from .elastic import MigrationReport, RebalancePolicy, ReshardReport, apportion_points
from .engine import ShardedEngine
from .routing import (
    RoutingPolicy,
    make_router,
    spawn_shard_seeds,
    stable_row_hash,
)
from .shard import ShardSnapshot, StreamShard

__all__ = [
    "MigrationReport",
    "RebalancePolicy",
    "ReshardReport",
    "RoutingPolicy",
    "ShardSnapshot",
    "ShardWorkerError",
    "ShardedEngine",
    "StreamShard",
    "apportion_points",
    "make_router",
    "spawn_shard_seeds",
    "stable_row_hash",
]
