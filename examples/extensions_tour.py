"""Tour of the extensions: k-median, time decay, sliding windows, sharding.

The paper's conclusion lists three follow-up directions — streaming k-median,
time-decaying weights for concept drift, and clustering over distributed
streams.  All three are implemented in :mod:`repro.extensions`; this example
exercises each one on a small stream and prints what it is good for.

Run with:  python examples/extensions_tour.py
"""

from __future__ import annotations

import numpy as np
from _example_utils import scaled

from repro.core.base import StreamingConfig
from repro.core.driver import CachedCoresetTreeClusterer
from repro.extensions.decay import DecayedCoresetClusterer, SlidingWindowClusterer
from repro.extensions.kmedian import KMedianCachedClusterer, KMedianConfig, kmedian_cost
from repro.kmeans.cost import kmeans_cost
from repro.parallel import ShardedEngine


def kmedian_demo() -> None:
    """Streaming k-median: robust to the outliers that inflate k-means."""
    rng = np.random.default_rng(0)
    n = scaled(5_000)
    clean = rng.normal(scale=1.0, size=(n, 6)) + rng.normal(
        scale=20.0, size=(5, 6)
    )[rng.integers(0, 5, n)]
    outliers = rng.uniform(-500, 500, size=(50, 6))
    points = np.vstack([clean, outliers])
    rng.shuffle(points, axis=0)

    kmeans_cc = CachedCoresetTreeClusterer(StreamingConfig(k=5, seed=0))
    kmedian_cc = KMedianCachedClusterer(KMedianConfig(k=5, seed=0))
    for clusterer in (kmeans_cc, kmedian_cc):
        clusterer.insert_many(points)

    kmeans_centers = kmeans_cc.query().centers
    kmedian_centers = kmedian_cc.query().centers
    print("== streaming k-median ==")
    print(f"k-median objective  | kmeans-CC centers : {kmedian_cost(points, kmeans_centers):12.1f}")
    print(f"k-median objective  | kmedian-CC centers: {kmedian_cost(points, kmedian_centers):12.1f}")
    print()


def drift_demo() -> None:
    """Decay and sliding windows: follow the data when its distribution shifts."""
    rng = np.random.default_rng(1)
    half = scaled(5_000)
    old = rng.normal(loc=0.0, size=(half, 4))
    new = rng.normal(loc=80.0, size=(half, 4))
    points = np.vstack([old, new])
    recent = points[-half // 2 :]

    config = StreamingConfig(k=4, seed=0)
    plain = CachedCoresetTreeClusterer(config)
    decayed = DecayedCoresetClusterer(config, decay=0.7)
    window = SlidingWindowClusterer(config, window_buckets=8)

    print("== concept drift (abrupt shift halfway through the stream) ==")
    print(f"{'variant':<28} {'cost on recent data':>20} {'stored points':>14}")
    for name, clusterer in (("cc (no forgetting)", plain), ("decayed", decayed), ("sliding window", window)):
        clusterer.insert_many(points)
        centers = clusterer.query().centers
        print(
            f"{name:<28} {kmeans_cost(recent, centers):>20.1f} {clusterer.stored_points():>14}"
        )
    print()


def distributed_demo() -> None:
    """Sharded streams: per-shard CC structures, one merged answer."""
    rng = np.random.default_rng(2)
    n = scaled(12_000)
    centers = rng.normal(scale=30.0, size=(6, 8))
    points = centers[rng.integers(0, 6, n)] + rng.normal(size=(n, 8))

    # The serial backend runs every shard inline: the deterministic reference.
    with ShardedEngine(StreamingConfig(k=6, seed=0), num_shards=4) as engine:
        engine.insert_batch(points)
        result = engine.query()
        print("== distributed streams (4 shards, round-robin routing) ==")
        print(f"points per shard          : {engine.shard_loads()}")
        print(f"global clustering cost    : {kmeans_cost(points, result.centers):.1f}")
        print(f"coreset points merged     : {result.coreset_points}")
        print(f"total stored across shards: {engine.stored_points()}")

    # The same shards in one worker process each: bit-identical answers
    # (routing, queues, and merge randomness are all deterministic).
    with ShardedEngine(
        StreamingConfig(k=6, seed=0), num_shards=4, backend="process"
    ) as parallel:
        parallel.insert_batch(points)
        parallel_result = parallel.query()
    match = bool(np.array_equal(result.centers, parallel_result.centers))
    print(f"process backend matches serial backend bitwise: {match}")


def main() -> None:
    """Run the k-median, drift, and distributed demos back to back."""
    kmedian_demo()
    drift_demo()
    distributed_demo()


if __name__ == "__main__":
    main()
