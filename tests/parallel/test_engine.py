"""Unit tests for the sharded ingestion engine across backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import StreamingConfig
from repro.core.driver import CachedCoresetTreeClusterer, StreamClusterDriver
from repro.kmeans.cost import kmeans_cost
from repro.parallel import ShardedEngine


class TestConstruction:
    def test_invalid_parameters(self, parallel_config):
        with pytest.raises(ValueError):
            ShardedEngine(parallel_config, num_shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(parallel_config, routing="broadcast")
        with pytest.raises(ValueError):
            ShardedEngine(parallel_config, backend="gpu")
        with pytest.raises(ValueError):
            ShardedEngine(parallel_config, structure="kdtree")

    def test_query_before_points_raises(self, parallel_config, backend):
        with ShardedEngine(parallel_config, num_shards=2, backend=backend) as engine:
            with pytest.raises(RuntimeError):
                engine.query()

    def test_driver_sharded_constructor_path(self, parallel_config):
        engine = CachedCoresetTreeClusterer.sharded(parallel_config, num_shards=2)
        try:
            assert isinstance(engine, ShardedEngine)
            assert engine.structure_name == "cc"
            assert engine.num_shards == 2
        finally:
            engine.close()

    def test_generic_driver_has_no_shard_structure(self, parallel_config):
        with pytest.raises(TypeError):
            StreamClusterDriver.sharded(parallel_config, num_shards=2)

    @pytest.mark.parametrize("structure", ["ct", "cc", "rcc"])
    def test_all_shard_structures(self, parallel_config, stream_points, structure):
        with ShardedEngine(
            parallel_config, num_shards=2, structure=structure
        ) as engine:
            engine.insert_batch(stream_points[:500])
            result = engine.query()
            assert result.centers.shape == (parallel_config.k, 5)
            # CT shards have no coreset cache; CC/RCC serve cached coresets.
            assert result.from_cache == (structure != "ct")
            assert (engine.cache_stats() is None) == (structure == "ct")

    def test_rcc_shards_respect_nesting_depth(self, parallel_config):
        with ShardedEngine(
            parallel_config, num_shards=2, structure="rcc", nesting_depth=1
        ) as engine:
            assert all(
                shard.structure.nesting_depth == 1 for shard in engine.shards
            )


class TestIngestion:
    def test_round_robin_balances_load(self, parallel_config, stream_points, backend, shards):
        with ShardedEngine(
            parallel_config, num_shards=shards, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:1000])
            loads = engine.shard_loads()
            assert sum(loads) == 1000
            assert max(loads) - min(loads) <= 1
            assert engine.points_seen == 1000

    def test_per_point_matches_batch_routing(self, parallel_config, stream_points):
        batched = ShardedEngine(parallel_config, num_shards=3)
        pointwise = ShardedEngine(parallel_config, num_shards=3)
        batched.insert_batch(stream_points[:120])
        for row in stream_points[:120]:
            pointwise.insert(row)
        assert batched.shard_loads() == pointwise.shard_loads()
        for left, right in zip(batched.shards, pointwise.shards):
            assert left.points_seen == right.points_seen
        batched.close()
        pointwise.close()

    def test_dimension_mismatch(self, parallel_config, backend):
        with ShardedEngine(parallel_config, num_shards=2, backend=backend) as engine:
            engine.insert(np.zeros(4))
            with pytest.raises(ValueError):
                engine.insert(np.zeros(2))
            with pytest.raises(ValueError):
                engine.insert_batch(np.zeros((3, 6)))

    def test_empty_batch_is_a_no_op(self, parallel_config):
        with ShardedEngine(parallel_config, num_shards=2) as engine:
            engine.insert_batch(np.empty((0, 4)))
            assert engine.points_seen == 0

    def test_flush_is_a_barrier(self, parallel_config, stream_points, backend):
        with ShardedEngine(parallel_config, num_shards=2, backend=backend) as engine:
            engine.insert_batch(stream_points[:700])
            engine.flush()
            # After the barrier every routed point is inside a shard.
            assert engine.stored_points() > 0
            assert sum(engine.shard_loads()) == 700


class TestQueries:
    def test_global_query_quality(self, parallel_config, stream_points, backend):
        with ShardedEngine(
            parallel_config, num_shards=4, backend=backend
        ) as engine:
            engine.insert_batch(stream_points)
            result = engine.query()
            assert result.centers.shape == (4, 5)
            assert result.from_cache
            cost = kmeans_cost(stream_points, result.centers)
            assert np.isfinite(cost) and cost > 0

    @pytest.mark.parametrize("routing", ["round_robin", "random"])
    def test_query_recovers_planted_centers(self, blob_points, blob_centers, routing):
        config = StreamingConfig(k=4, coreset_size=50, n_init=2, lloyd_iterations=5, seed=0)
        with ShardedEngine(config, num_shards=4, routing=routing) as engine:
            engine.insert_batch(blob_points)
            result = engine.query()
        assert result.centers.shape == (4, 4)
        cost = kmeans_cost(blob_points, result.centers)
        assert cost <= 3.0 * kmeans_cost(blob_points, blob_centers)

    def test_sharding_keeps_single_shard_quality(self, blob_points):
        """Four shards answer within 2x the cost of one shard (Observation 1)."""
        config = StreamingConfig(k=4, coreset_size=50, n_init=2, lloyd_iterations=5, seed=0)
        costs = []
        for num_shards in (1, 4):
            with ShardedEngine(config, num_shards=num_shards) as engine:
                engine.insert_batch(blob_points)
                costs.append(kmeans_cost(blob_points, engine.query().centers))
        assert costs[1] <= 2.0 * costs[0]

    def test_warm_start_on_repeat_queries(self, parallel_config, stream_points):
        with ShardedEngine(parallel_config, num_shards=2) as engine:
            engine.insert_batch(stream_points[:1500])
            first = engine.query()
            second = engine.query()
            assert not first.warm_start
            assert second.warm_start
            assert engine.query_engine.warm_queries >= 1

    def test_query_stats_and_cache_aggregation(self, parallel_config, stream_points, backend):
        with ShardedEngine(
            parallel_config, num_shards=2, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:1200])
            result = engine.query()
            stats = result.stats
            assert stats is not None
            assert stats.coreset_points == result.coreset_points
            snapshots = engine.last_snapshots()
            assert snapshots is not None and len(snapshots) == 2
            aggregated = engine.cache_stats()
            assert aggregated is not None
            assert aggregated.lookups == sum(
                s.cache_hits + s.cache_misses for s in snapshots
            )

    def test_query_multi_k(self, parallel_config, stream_points, backend):
        with ShardedEngine(
            parallel_config, num_shards=2, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:1000])
            sweep = engine.query_multi_k([2, 4])
            assert set(sweep) == {2, 4}
            assert sweep[2].centers.shape[0] == 2
            assert sweep[4].centers.shape[0] == 4

    def test_stored_points_matches_shard_sum(self, parallel_config, stream_points):
        with ShardedEngine(parallel_config, num_shards=3) as engine:
            engine.insert_batch(stream_points[:900])
            per_shard = [shard.stored_points() for shard in engine.shards]
            assert engine.stored_points() == sum(per_shard)
            assert all(points > 0 for points in per_shard)
