"""Elasticity battery: live resharding, migration, routing dtype.

Covers the elastic-sharding contract end to end: N→M reshards are lossless
(the redistributed union coreset is the same multiset, ``points_seen``
accounting is exact, partial-bucket tails survive), post-reshard query
quality stays within the golden 1.10x geomean bound, load-driven migration
moves coreset mass and virtual routing buckets together, and the
``_route``/storage-dtype regression stays fixed.  Surviving a killed worker
is the supervisor's job (``tests/resilience/test_worker_loss.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.backends as backends_module
from repro.bench.harness import StreamingExperiment, run_experiment
from repro.checkpoint import load_checkpoint
from repro.core.base import StreamingConfig
from repro.data.loaders import load_dataset
from repro.kmeans.cost import kmeans_cost
from repro.parallel import RebalancePolicy, ShardedEngine, apportion_points
from repro.parallel.routing import make_router
from repro.queries.schedule import FixedIntervalSchedule
from repro.serving.plane import ServingPlane

from backend_matrix import enabled_backends, num_test_shards

_SHARDS = num_test_shards()

needs_process = pytest.mark.skipif(
    "process" not in enabled_backends(),
    reason="process backend disabled via REPRO_TEST_BACKENDS",
)


@pytest.fixture(autouse=True)
def short_stall_timeout(monkeypatch):
    """Fail fast instead of waiting out the production stall deadline."""
    monkeypatch.setattr(backends_module, "_STALL_TIMEOUT", 20.0)


def _sorted_union(engine: ShardedEngine) -> np.ndarray:
    """The engine's merged coreset as lexsorted (point..., weight) rows."""
    coreset, _ = engine.collect_serving_snapshot()
    rows = np.column_stack(
        [
            np.asarray(coreset.points, dtype=np.float64),
            np.asarray(coreset.weights, dtype=np.float64),
        ]
    )
    return rows[np.lexsort(rows.T)]


class TestReshardCorrectness:
    def test_reshard_preserves_union_and_accounting(
        self, parallel_config, stream_points, backend
    ):
        """Grow N→M: same coreset multiset, exact points_seen apportionment."""
        with ShardedEngine(
            parallel_config, num_shards=_SHARDS, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:1130])  # leaves a partial bucket
            before = _sorted_union(engine)
            report = engine.reshard(_SHARDS + 2)
            assert engine.num_shards == _SHARDS + 2
            assert report.old_num_shards == _SHARDS
            assert report.points_represented == 1130
            assert report.pause_seconds >= 0.0
            np.testing.assert_allclose(_sorted_union(engine), before)
            assert engine.points_seen == 1130
            assert sum(engine.shard_loads()) == 1130
            assert engine.stored_points() == report.coreset_points
            # The engine keeps ingesting and answering after the reshard.
            engine.insert_batch(stream_points[1130:1500])
            assert engine.points_seen == 1500
            assert sum(engine.shard_loads()) == 1500
            assert np.isfinite(engine.query().stats.cost)

    def test_reshard_shrink(self, parallel_config, stream_points, backend):
        """Shrinking M→1 folds every shard into one without losing mass."""
        with ShardedEngine(
            parallel_config, num_shards=_SHARDS, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:800])
            before = _sorted_union(engine)
            engine.reshard(1)
            assert engine.num_shards == 1
            np.testing.assert_allclose(_sorted_union(engine), before)
            assert engine.shard_loads() == [800]
            assert np.isfinite(engine.query().stats.cost)

    def test_reshard_preserves_partial_bucket_tail(self, parallel_config, backend):
        """Points still in shard buffers (no full bucket yet) survive verbatim."""
        rng = np.random.default_rng(13)
        tail = rng.normal(size=(7, 5))  # far below bucket_size=50
        with ShardedEngine(
            parallel_config, num_shards=2, backend=backend
        ) as engine:
            engine.insert_batch(tail)
            engine.reshard(3)
            coreset, _ = engine.collect_serving_snapshot()
            assert coreset.size == 7
            np.testing.assert_allclose(np.sort(coreset.weights), np.ones(7))
            got = np.asarray(coreset.points, dtype=np.float64)
            np.testing.assert_allclose(
                got[np.lexsort(got.T)], tail[np.lexsort(tail.T)]
            )

    def test_reshard_validation(self, parallel_config):
        with ShardedEngine(parallel_config, num_shards=2) as engine:
            with pytest.raises(ValueError):
                engine.reshard(0)
        with pytest.raises(RuntimeError):
            engine.reshard(2)


class TestReshardRoundTripProperties:
    _POINTS = np.random.default_rng(21).normal(scale=8.0, size=(400, 4))

    @given(
        n_points=st.integers(min_value=30, max_value=400),
        m1=st.integers(min_value=1, max_value=6),
        m2=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_n_m_n_round_trip_is_lossless(self, n_points, m1, m2):
        """Any N→M1→M2 chain preserves the union multiset and accounting."""
        config = StreamingConfig(
            k=3, coreset_size=25, n_init=1, lloyd_iterations=2, seed=5
        )
        with ShardedEngine(config, num_shards=3, backend="serial") as engine:
            engine.insert_batch(self._POINTS[:n_points])
            before = _sorted_union(engine)
            engine.reshard(m1)
            report = engine.reshard(m2)
            np.testing.assert_allclose(_sorted_union(engine), before)
            assert engine.points_seen == n_points
            assert sum(engine.shard_loads()) == n_points
            assert engine.num_shards == m2
            assert engine.stored_points() == report.coreset_points

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        total=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_apportion_points_is_exact(self, weights, total):
        counts = apportion_points(weights, total)
        assert len(counts) == len(weights)
        assert sum(counts) == total
        assert all(count >= 0 for count in counts)

    def test_apportion_points_edge_cases(self):
        assert apportion_points([], 0) == []
        with pytest.raises(ValueError):
            apportion_points([], 5)
        assert apportion_points([0.0, 0.0, 0.0], 7) == [3, 2, 2]
        assert apportion_points([3.0, 1.0], 4) == [3, 1]


class TestReshardQuality:
    """The acceptance gate: resharding must not degrade clustering quality.

    A mid-stream 4→8 reshard redistributes the union coreset (Observation 1),
    so the final query cost must stay within the same golden bound the
    never-resharded sharded engine is held to: per-seed ratio <= 1.5 against
    the equal-``m`` single-structure CC run, geomean across seeds <= 1.10.
    """

    @pytest.mark.parametrize("dataset", ["covtype", "drift"])
    def test_post_reshard_cost_within_1_10x_of_single_cc(self, dataset):
        info = load_dataset(dataset, num_points=6000, seed=0)
        points = info.points
        ratios = []
        for seed in (0, 1, 2):
            config = StreamingConfig(
                k=10, coreset_size=200, n_init=5, lloyd_iterations=20, seed=seed
            )
            single = ShardedEngine(config, num_shards=1, backend="serial")
            with single:
                single.insert_batch(points)
                single_cost = kmeans_cost(points, single.query().centers)

            with ShardedEngine(
                config, num_shards=4, routing="round_robin"
            ) as engine:
                engine.insert_batch(points[:3000])
                engine.reshard(8)
                engine.insert_batch(points[3000:])
                resharded_cost = kmeans_cost(points, engine.query().centers)

            ratio = resharded_cost / single_cost
            assert ratio <= 1.5, f"seed {seed}: post-reshard cost degraded {ratio:.2f}x"
            ratios.append(ratio)

        geomean = float(np.exp(np.mean(np.log(ratios))))
        assert geomean <= 1.10, f"post-reshard cost geomean {geomean:.3f} > 1.10"


class TestMigration:
    def test_migrate_moves_mass_and_preserves_totals(
        self, parallel_config, stream_points, backend
    ):
        with ShardedEngine(
            parallel_config, num_shards=_SHARDS, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:900])
            total_before = float(np.sum(_sorted_union(engine)[:, -1]))
            loads_before = engine.shard_loads()
            report = engine.migrate(0, 1, fraction=0.5)
            assert report.moved_coreset_points > 0
            assert report.moved_points_represented > 0
            assert engine.points_seen == 900
            assert sum(engine.shard_loads()) == 900
            assert engine.shard_loads()[0] == (
                loads_before[0] - report.moved_points_represented
            )
            total_after = float(np.sum(_sorted_union(engine)[:, -1]))
            assert total_after == pytest.approx(total_before)
            assert np.isfinite(engine.query().stats.cost)

    def test_migrate_validation(self, parallel_config):
        with ShardedEngine(parallel_config, num_shards=2) as engine:
            engine.insert_batch(np.random.default_rng(1).normal(size=(60, 3)))
            with pytest.raises(ValueError):
                engine.migrate(0, 0)
            with pytest.raises(ValueError):
                engine.migrate(0, 5)
            with pytest.raises(ValueError):
                engine.migrate(0, 1, fraction=0.0)

    def test_rebalance_policy_triggers_on_hash_skew(self, parallel_config):
        """Duplicate rows hash to one shard; the policy migrates them away."""
        rng = np.random.default_rng(3)
        hot_row = rng.normal(size=5)
        hot = np.tile(hot_row, (600, 1))
        policy = RebalancePolicy(imbalance_ratio=1.2, min_points=200, fraction=0.5)
        with ShardedEngine(
            parallel_config,
            num_shards=_SHARDS,
            backend="serial",
            routing="hash",
            rebalance=policy,
        ) as engine:
            for offset in range(0, 600, 100):
                engine.insert_batch(hot[offset : offset + 100])
            history = engine.migration_history
            assert history, "skewed hash stream never triggered a migration"
            assert history[0].router_slots_moved > 0
            assert sum(engine.shard_loads()) == engine.points_seen == 600
            assert np.isfinite(engine.query().stats.cost)

    def test_rebalance_policy_decisions(self):
        policy = RebalancePolicy(imbalance_ratio=1.5, min_points=100, fraction=0.5)
        assert policy.decide([1000]) is None  # one shard: nothing to do
        assert policy.decide([10, 10]) is None  # below min_points
        assert policy.decide([100, 100]) is None  # balanced
        assert policy.decide([300, 100]) == (0, 1)
        assert policy.decide([100, 300, 20]) == (1, 2)

    def test_rebalance_policy_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(imbalance_ratio=1.0)
        with pytest.raises(ValueError):
            RebalancePolicy(min_points=0)
        with pytest.raises(ValueError):
            RebalancePolicy(fraction=0.0)


class TestHarnessAndServing:
    def test_harness_reshard_schedule(self, stream_points):
        config = StreamingConfig(
            k=4, coreset_size=50, n_init=1, lloyd_iterations=3, seed=7
        )
        result = run_experiment(
            StreamingExperiment(
                algorithm="cc",
                config=config,
                schedule=FixedIntervalSchedule(500),
                shards=2,
                backend="serial",
                reshard_at={600: 4, 1200: 3},
            ),
            stream_points[:1500],
        )
        assert [report.new_num_shards for report in result.reshards] == [4, 3]
        assert all(report.pause_seconds >= 0.0 for report in result.reshards)
        assert np.isfinite(result.final_cost)

    def test_harness_reshard_requires_sharded_run(self, stream_points):
        config = StreamingConfig(k=4, coreset_size=50, seed=7)
        with pytest.raises(ValueError, match="reshard_at requires"):
            run_experiment(
                StreamingExperiment(
                    algorithm="cc", config=config, reshard_at={100: 2}
                ),
                stream_points[:200],
            )

    @needs_process
    def test_serving_plane_reshard_during_reads(self, parallel_config, stream_points):
        """A reader keeps answering while the writer reshards underneath it."""
        engine = ShardedEngine(parallel_config, num_shards=2, backend="process")
        with ServingPlane(engine) as plane:
            plane.ingest(stream_points[:600])
            reader = plane.reader()
            stop = threading.Event()
            errors: list[Exception] = []
            served = []

            def serve() -> None:
                while not stop.is_set():
                    try:
                        served.append(reader.query().cost)
                    except Exception as exc:  # noqa: BLE001 - recorded for assert
                        errors.append(exc)
                        return

            thread = threading.Thread(target=serve)
            thread.start()
            try:
                for offset in range(600, 1800, 300):
                    plane.ingest(stream_points[offset : offset + 300])
                    if offset == 900:
                        report = plane.reshard(4)
                        assert report.new_num_shards == 4
            finally:
                stop.set()
                thread.join(timeout=20.0)
            assert not errors
            assert served and all(np.isfinite(cost) for cost in served)
            assert engine.num_shards == 4
            assert plane.points_ingested == 1800

    def test_serving_plane_reshard_rejects_single_structure(self, parallel_config):
        from repro.core.driver import CachedCoresetTreeClusterer

        plane = ServingPlane(CachedCoresetTreeClusterer(parallel_config))
        with pytest.raises(TypeError, match="does not support resharding"):
            plane.reshard(2)

    def test_checkpoint_round_trip_after_reshard(
        self, tmp_path, parallel_config, stream_points, backend
    ):
        """Inherited (post-reshard) shard state survives snapshot/restore."""
        with ShardedEngine(
            parallel_config, num_shards=2, backend=backend
        ) as engine:
            engine.insert_batch(stream_points[:700])
            engine.reshard(4)
            engine.insert_batch(stream_points[700:930])
            before = _sorted_union(engine)
            points_seen = engine.points_seen
            loads = engine.shard_loads()
            engine.snapshot(tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        try:
            assert restored.num_shards == 4
            assert restored.points_seen == points_seen
            assert restored.shard_loads() == loads
            np.testing.assert_allclose(_sorted_union(restored), before)
            assert np.isfinite(restored.query().stats.cost)
        finally:
            restored.close()


class TestRouteDtypeRegression:
    """``_route`` must hash the storage-dtype row, not the raw float64 input."""

    @staticmethod
    def _quantization_sensitive_row(router, rng) -> np.ndarray:
        """A float64 row whose hash shard changes under float32 quantization."""
        for _ in range(1000):
            row = rng.normal(scale=3.0, size=5)
            quantized = row.astype(np.float32).astype(np.float64)
            if router.route_point(row) != router.route_point(
                np.asarray(row, dtype=np.float32)
            ) and not np.array_equal(row, quantized):
                return row
        raise AssertionError("no quantization-sensitive row found")

    def test_route_matches_actual_insert_shard_under_float32(self):
        config = StreamingConfig(k=3, coreset_size=25, seed=9, dtype="float32")
        with ShardedEngine(
            config, num_shards=3, backend="serial", routing="hash"
        ) as engine:
            row = self._quantization_sensitive_row(
                make_router("hash", 3, seed=9), np.random.default_rng(17)
            )
            predicted = engine._route(row)
            engine.insert(row)
            engine.flush()
            loads = engine.shard_loads()
            assert loads[predicted] == 1, (
                f"_route named shard {predicted} but the point landed on "
                f"shard {int(np.argmax(loads))}"
            )

    def test_route_unchanged_for_float64(self):
        config = StreamingConfig(k=3, coreset_size=25, seed=9)
        with ShardedEngine(
            config, num_shards=3, backend="serial", routing="hash"
        ) as engine:
            rng = np.random.default_rng(23)
            for row in rng.normal(size=(50, 4)):
                predicted = engine._route(row)
                before = engine.shard_loads()
                engine.insert(row)
                after = engine.shard_loads()
                assert after[predicted] == before[predicted] + 1
