"""Integration tests for the extension clusterers on realistic streams."""

from __future__ import annotations

import pytest

from repro.core.base import StreamingConfig
from repro.core.driver import CachedCoresetTreeClusterer
from repro.data.drift import RBFDriftGenerator, RBFDriftSpec
from repro.data.loaders import load_intrusion, load_power
from repro.extensions.decay import DecayedCoresetClusterer, SlidingWindowClusterer
from repro.extensions.kmedian import KMedianCachedClusterer, KMedianConfig, kmedian_cost
from repro.kmeans.cost import kmeans_cost
from repro.parallel import ShardedEngine


class TestKMedianOnRealisticData:
    def test_kmedian_competitive_with_kmeans_under_kmedian_objective(self):
        """The k-median clusterer stays in the same ballpark as the k-means one
        under the k-median objective on skewed, outlier-bearing data.  (With the
        coordinate-wise-median surrogate and few restarts it does not always win
        outright; the extension benchmark exercises the stronger configuration.)
        """
        info = load_intrusion(num_points=4000, seed=2)
        points = info.points

        kmeans_cc = CachedCoresetTreeClusterer(
            StreamingConfig(k=10, coreset_size=200, n_init=2, lloyd_iterations=8, seed=0)
        )
        kmedian_cc = KMedianCachedClusterer(
            KMedianConfig(k=10, coreset_size=200, n_init=3, max_iterations=12, seed=0)
        )
        kmeans_cc.insert_many(points)
        kmedian_cc.insert_many(points)

        kmeans_centers = kmeans_cc.query().centers
        kmedian_centers = kmedian_cc.query().centers
        assert kmedian_cost(points, kmedian_centers) <= 2.0 * kmedian_cost(
            points, kmeans_centers
        )

    def test_interleaved_queries(self):
        info = load_power(num_points=3000, seed=4)
        clusterer = KMedianCachedClusterer(
            KMedianConfig(k=8, coreset_size=160, n_init=2, max_iterations=8, seed=0)
        )
        for start in range(0, 3000, 600):
            clusterer.insert_many(info.points[start : start + 600])
            result = clusterer.query()
            assert result.centers.shape == (8, info.dimension)


class TestDriftHandlingOnRbfStream:
    def test_window_and_decay_track_drift_better_than_cc(self):
        spec = RBFDriftSpec(
            dimension=8, num_centers=5, points_per_step=50, drift_speed=1.0,
            center_spread=10.0, bound=100.0,
        )
        generator = RBFDriftGenerator(spec, seed=5)
        points = generator.generate(8000)
        recent = points[-2000:]

        config = StreamingConfig(k=5, coreset_size=100, n_init=2, lloyd_iterations=8, seed=0)
        plain = CachedCoresetTreeClusterer(config)
        window = SlidingWindowClusterer(config, window_buckets=8)
        decayed = DecayedCoresetClusterer(config, decay=0.7)

        costs = {}
        for name, clusterer in (("plain", plain), ("window", window), ("decayed", decayed)):
            clusterer.insert_many(points)
            costs[name] = kmeans_cost(recent, clusterer.query().centers)

        # Under sustained drift, forgetting should not hurt and usually helps.
        assert costs["window"] <= 1.5 * costs["plain"]
        assert costs["decayed"] <= 1.5 * costs["plain"]

    def test_window_memory_much_smaller_than_stream(self):
        spec = RBFDriftSpec(dimension=6, num_centers=4, points_per_step=50)
        generator = RBFDriftGenerator(spec, seed=6)
        points = generator.generate(6000)
        clusterer = SlidingWindowClusterer(
            StreamingConfig(k=4, coreset_size=80, n_init=2, lloyd_iterations=5, seed=0),
            window_buckets=5,
        )
        clusterer.insert_many(points)
        assert clusterer.stored_points() <= 6 * 80


class TestDistributedOnRealisticData:
    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_sharded_matches_central_quality(self, num_shards):
        info = load_power(num_points=4000, seed=7)
        config = StreamingConfig(k=8, coreset_size=160, n_init=2, lloyd_iterations=8, seed=0)

        central = CachedCoresetTreeClusterer(config)
        central.insert_many(info.points)
        central_cost = kmeans_cost(info.points, central.query().centers)

        with ShardedEngine(config, num_shards=num_shards) as sharded:
            sharded.insert_many(info.points)
            sharded_cost = kmeans_cost(info.points, sharded.query().centers)

        assert sharded_cost <= 1.75 * central_cost

    def test_query_between_bucket_boundaries(self):
        info = load_power(num_points=2500, seed=8)
        with ShardedEngine(
            StreamingConfig(k=6, coreset_size=150, n_init=2, lloyd_iterations=5, seed=0),
            num_shards=3,
        ) as engine:
            for start in range(0, 2500, 500):
                engine.insert_many(info.points[start : start + 500])
                result = engine.query()
                assert result.centers.shape == (6, info.dimension)
                assert result.coreset_points > 0
