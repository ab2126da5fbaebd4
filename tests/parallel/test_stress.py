"""Concurrency stress and fault-injection tests for the sharded engine.

Covers the failure modes a real parallel engine must not have: racy small
batches interleaved with queries, worker exceptions that must surface at
``insert_batch``/``query`` instead of hanging the coordinator, and shutdown
that never leaves live worker processes behind.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.backends as backends_module
from repro.core.base import StreamingConfig
from repro.kmeans.cost import kmeans_cost
from repro.parallel import ShardedEngine, ShardWorkerError
from repro.parallel.shard import StreamShard

from backend_matrix import num_test_shards

_SHARDS = num_test_shards()


class FailingShard(StreamShard):
    """Shard that blows up once it has seen more than ``FAIL_AFTER`` points."""

    FAIL_AFTER = 120

    def insert_batch(self, points):  # noqa: D102 - inherited behaviour + fault
        if self.points_seen + np.asarray(points).shape[0] > self.FAIL_AFTER:
            raise RuntimeError("injected shard failure")
        super().insert_batch(points)


def failing_factory(config, shard_index, seed, structure, **kwargs):
    """Module-level factory (picklable) producing :class:`FailingShard`."""
    return FailingShard(config, shard_index, seed=seed, structure=structure)


@pytest.fixture()
def stress_config() -> StreamingConfig:
    return StreamingConfig(k=3, coreset_size=25, n_init=1, lloyd_iterations=3, seed=2)


@pytest.fixture(autouse=True)
def short_stall_timeout(monkeypatch):
    """Fail fast instead of waiting out the production stall deadline."""
    monkeypatch.setattr(backends_module, "_STALL_TIMEOUT", 20.0)


@pytest.fixture(autouse=True)
def shallow_queues(monkeypatch):
    """Two-slot slab rings: the coordinator blocks as soon as a shard lags."""
    monkeypatch.setattr(backends_module, "_QUEUE_DEPTH", 2)


class TestRacyInterleaving:
    def test_many_small_batches_with_queries(self, stress_config, backend):
        """Dozens of tiny ragged batches racing shard merges and queries."""
        rng = np.random.default_rng(3)
        points = rng.normal(scale=4.0, size=(1700, 3))
        with ShardedEngine(
            stress_config, num_shards=_SHARDS, backend=backend
        ) as engine:
            offset = 0
            costs = []
            batch_no = 0
            while offset < points.shape[0]:
                size = int(rng.integers(1, 64))
                engine.insert_batch(points[offset : offset + size])
                offset += size
                batch_no += 1
                if batch_no % 5 == 0:
                    costs.append(engine.query().stats.cost)
            result = engine.query()
            assert engine.points_seen == points.shape[0]
            assert sum(engine.shard_loads()) == points.shape[0]
            assert all(np.isfinite(cost) for cost in costs)
            assert np.isfinite(kmeans_cost(points, result.centers))

    def test_per_point_inserts_race_queries(self, stress_config, backend):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(300, 3))
        with ShardedEngine(
            stress_config, num_shards=_SHARDS, backend=backend
        ) as engine:
            for index, row in enumerate(points):
                engine.insert(row)
                if (index + 1) % 60 == 0:
                    engine.query()
            assert engine.points_seen == 300


class TestFaultInjection:
    def test_worker_error_surfaces_without_hanging(self, stress_config, backend):
        """A raised worker exception surfaces at insert/query, never a hang."""
        rng = np.random.default_rng(5)
        points = rng.normal(size=(2000, 3))
        engine = ShardedEngine(
            stress_config,
            num_shards=2,
            backend=backend,
            shard_factory=failing_factory,
        )
        try:
            with pytest.raises((ShardWorkerError, RuntimeError)) as excinfo:
                for offset in range(0, points.shape[0], 30):
                    engine.insert_batch(points[offset : offset + 30])
                engine.query()
            assert "injected shard failure" in str(excinfo.value)
            if backend != "serial":
                assert isinstance(excinfo.value, ShardWorkerError)
                assert excinfo.value.shard_index in (0, 1)
        finally:
            engine.close()

    def test_query_after_worker_error_raises(self, stress_config, backend):
        if backend == "serial":
            pytest.skip("serial raises inline; there is no deferred error state")
        engine = ShardedEngine(
            stress_config,
            num_shards=2,
            backend=backend,
            shard_factory=failing_factory,
        )
        try:
            points = np.random.default_rng(6).normal(size=(400, 3))
            with pytest.raises(ShardWorkerError):
                for offset in range(0, 400, 20):
                    engine.insert_batch(points[offset : offset + 20])
                engine.query()
            # The engine stays failed but responsive.
            with pytest.raises(ShardWorkerError):
                engine.query()
        finally:
            engine.close()

    def test_killed_worker_process_is_detected(self, stress_config):
        engine = ShardedEngine(
            stress_config, num_shards=2, backend="process"
        )
        try:
            points = np.random.default_rng(7).normal(size=(200, 3))
            engine.insert_batch(points)
            engine.flush()
            engine._backend._processes[0].terminate()
            engine._backend._processes[0].join(timeout=10.0)
            with pytest.raises((ShardWorkerError, RuntimeError)):
                engine.query()
        finally:
            engine.close()


class TestCleanShutdown:
    def test_close_is_idempotent(self, stress_config, backend):
        engine = ShardedEngine(stress_config, num_shards=2, backend=backend)
        engine.insert_batch(np.random.default_rng(8).normal(size=(100, 3)))
        engine.close()
        engine.close()
        assert engine.closed

    def test_context_manager_closes(self, stress_config, backend):
        with ShardedEngine(stress_config, num_shards=2, backend=backend) as engine:
            engine.insert_batch(np.random.default_rng(9).normal(size=(100, 3)))
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.insert_batch(np.zeros((1, 3)))
        with pytest.raises(RuntimeError):
            engine.query()

    def test_no_live_workers_after_close(self, stress_config):
        engine = ShardedEngine(stress_config, num_shards=2, backend="process")
        engine.insert_batch(np.random.default_rng(10).normal(size=(300, 3)))
        engine.query()
        workers = list(engine._backend._processes)
        engine.close()
        assert all(not worker.is_alive() for worker in workers)

    def test_close_after_worker_error(self, stress_config, backend):
        engine = ShardedEngine(
            stress_config,
            num_shards=2,
            backend=backend,
            shard_factory=failing_factory,
        )
        points = np.random.default_rng(12).normal(size=(500, 3))
        with pytest.raises((ShardWorkerError, RuntimeError)):
            for offset in range(0, 500, 25):
                engine.insert_batch(points[offset : offset + 25])
            engine.query()
        engine.close()
        assert engine.closed
