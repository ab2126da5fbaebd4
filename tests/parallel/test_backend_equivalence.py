"""Cross-backend equivalence: serial and process must agree bitwise.

The engine's design makes shard state a pure function of (config seed, shard
seed, routed point sequence): routing happens coordinator-side, each shard's
work queue is FIFO, and merge randomness is span-keyed.  So both executor
backends must produce *identical* shard coresets and query answers — any
divergence means ordering, copying, or seeding broke.  The inline serial
backend is the reference.
"""

from __future__ import annotations


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import StreamingConfig
from repro.parallel import ShardedEngine

from backend_matrix import enabled_backends, num_test_shards

_BACKENDS = enabled_backends()
_SHARDS = num_test_shards()


def _config(seed: int) -> StreamingConfig:
    return StreamingConfig(k=3, coreset_size=24, n_init=1, lloyd_iterations=3, seed=seed)


@st.composite
def point_streams(draw):
    """A small float stream plus a way to cut it into batches."""
    n = draw(st.integers(min_value=20, max_value=160))
    d = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    points = np.random.default_rng(seed).normal(scale=5.0, size=(n, d))
    num_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=num_cuts,
                max_size=num_cuts,
            )
        )
    )
    return points, cuts


def _batches(points: np.ndarray, cuts: list[int]):
    edges = [0, *cuts, points.shape[0]]
    return [points[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def _run(backend: str, routing: str, seed: int, batches, interleave_queries: bool):
    engine = ShardedEngine(
        _config(seed),
        num_shards=_SHARDS,
        routing=routing,
        backend=backend,
    )
    try:
        costs = []
        for batch in batches:
            engine.insert_batch(batch)
            if interleave_queries:
                costs.append(engine.query().stats.cost)
        result = engine.query()
        snapshots = engine.last_snapshots()
        return {
            "centers": result.centers.copy(),
            "cost": result.stats.cost,
            "interleaved_costs": costs,
            "snapshots": [
                (s.points.copy(), s.weights.copy(), s.points_seen, s.stored_points)
                for s in snapshots
            ],
            "loads": engine.shard_loads(),
        }
    finally:
        engine.close()


def _assert_same(reference, other, backend: str):
    assert reference["loads"] == other["loads"], f"{backend}: shard loads differ"
    assert reference["interleaved_costs"] == other["interleaved_costs"], (
        f"{backend}: interleaved query costs differ"
    )
    assert reference["cost"] == other["cost"], f"{backend}: query cost differs"
    assert np.array_equal(reference["centers"], other["centers"]), (
        f"{backend}: query centers differ"
    )
    for index, (left, right) in enumerate(
        zip(reference["snapshots"], other["snapshots"])
    ):
        assert left[2] == right[2] and left[3] == right[3], (
            f"{backend}: shard {index} accounting differs"
        )
        assert np.array_equal(left[0], right[0]), (
            f"{backend}: shard {index} coreset points differ"
        )
        assert np.array_equal(left[1], right[1]), (
            f"{backend}: shard {index} coreset weights differ"
        )


class TestCrossBackendEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream=point_streams(),
        routing=st.sampled_from(["round_robin", "hash", "random"]),
        interleave=st.booleans(),
    )
    def test_backends_agree_bitwise(self, stream, routing, interleave):
        points, cuts = stream
        batches = _batches(points, cuts)
        seed = 5
        reference = _run("serial", routing, seed, batches, interleave)
        for backend in _BACKENDS:
            if backend == "serial":
                continue
            other = _run(backend, routing, seed, batches, interleave)
            _assert_same(reference, other, backend)

    def test_backends_agree_on_a_long_run(self, stream_points):
        """One larger fixed case with interleaved queries, all backends."""
        batches = [stream_points[offset : offset + 333] for offset in range(0, 3000, 333)]
        reference = _run("serial", "round_robin", 1, batches, interleave_queries=True)
        for backend in _BACKENDS:
            if backend == "serial":
                continue
            _assert_same(
                reference, _run(backend, "round_robin", 1, batches, True), backend
            )


class TestHashRoutingBatchInvariance:
    @settings(max_examples=20, deadline=None)
    @given(stream=point_streams())
    def test_shard_contents_ignore_batch_boundaries(self, stream):
        """The same points split differently land identically on every shard."""
        points, cuts = stream
        one = _run("serial", "hash", 3, [points], interleave_queries=False)
        split = _run("serial", "hash", 3, _batches(points, cuts), interleave_queries=False)
        _assert_same(one, split, "serial/hash-split")
