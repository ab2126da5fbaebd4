"""Unit tests for the per-figure experiment drivers (reduced-size sweeps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import (
    cost_vs_bucket_size,
    cost_vs_k,
    dataset_table,
    drift_adaptation_curve,
    memory_table,
    poisson_queries,
    rcc_tradeoffs,
    scaling_profile,
    soft_membership_profile,
    threshold_sweep,
    time_vs_bucket_size,
    time_vs_query_interval,
)


@pytest.fixture(scope="module")
def small_stream() -> np.ndarray:
    """A small but structured stream: 6 clusters, 3000 points, 6 dimensions."""
    rng = np.random.default_rng(21)
    centers = rng.normal(scale=15.0, size=(6, 6))
    labels = rng.integers(0, 6, size=3000)
    return centers[labels] + rng.normal(scale=1.0, size=(3000, 6))


FAST_ALGOS = ("streamkm++", "cc", "onlinecc")


class TestCostVsK:
    def test_structure_and_shape(self, small_stream):
        results = cost_vs_k(
            small_stream,
            k_values=(4, 8),
            algorithms=("sequential", "cc"),
            query_interval=500,
            include_batch=True,
            seed=0,
        )
        assert set(results) == {"sequential", "cc", "kmeans++"}
        for series in results.values():
            assert set(series) == {4, 8}
            assert all(cost > 0 for cost in series.values())

    def test_cost_decreases_with_k(self, small_stream):
        results = cost_vs_k(
            small_stream,
            k_values=(2, 8),
            algorithms=("cc",),
            query_interval=500,
            include_batch=False,
            seed=0,
        )
        assert results["cc"][8] < results["cc"][2]

    def test_coreset_algorithms_match_batch(self, small_stream):
        results = cost_vs_k(
            small_stream,
            k_values=(6,),
            algorithms=("cc",),
            query_interval=500,
            include_batch=True,
            seed=0,
        )
        assert results["cc"][6] <= 2.0 * results["kmeans++"][6]


class TestTimeVsQueryInterval:
    def test_structure(self, small_stream):
        results = time_vs_query_interval(
            small_stream,
            intervals=(200, 1000),
            algorithms=FAST_ALGOS,
            k=5,
            seed=0,
        )
        assert set(results) == set(FAST_ALGOS)
        for series in results.values():
            assert set(series) == {200, 1000}

    def test_tree_algorithms_speed_up_with_rarer_queries(self, small_stream):
        results = time_vs_query_interval(
            small_stream,
            intervals=(100, 1500),
            algorithms=("streamkm++",),
            k=5,
            seed=0,
        )
        assert results["streamkm++"][1500] < results["streamkm++"][100]


class TestBucketSizeSweeps:
    def test_cost_sweep_structure(self, small_stream):
        results = cost_vs_bucket_size(
            small_stream,
            bucket_multipliers=(20, 40),
            algorithms=("cc",),
            k=5,
            query_interval=500,
            seed=0,
        )
        assert set(results["cc"]) == {20, 40}

    def test_time_sweep_metrics_present(self, small_stream):
        results = time_vs_bucket_size(
            small_stream,
            bucket_multipliers=(20,),
            algorithms=("cc", "onlinecc"),
            k=5,
            query_interval=500,
            seed=0,
        )
        entry = results["cc"][20]
        assert {"update_us", "query_us", "total_us"} <= set(entry)
        assert entry["total_us"] == pytest.approx(
            entry["update_us"] + entry["query_us"], rel=1e-6
        )


class TestPoissonQueries:
    def test_structure_and_query_counts(self, small_stream):
        results = poisson_queries(
            small_stream,
            mean_intervals=(200, 1000),
            algorithms=("cc", "onlinecc"),
            k=5,
            seed=0,
        )
        for series in results.values():
            assert set(series) == {200, 1000}
            assert series[200]["num_queries"] >= series[1000]["num_queries"]


class TestThresholdSweep:
    def test_structure(self, small_stream):
        results = threshold_sweep(
            small_stream, thresholds=(1.2, 4.8), k=5, query_interval=300, seed=0
        )
        assert set(results) == {1.2, 4.8}
        for entry in results.values():
            assert entry["total_seconds"] == pytest.approx(
                entry["update_seconds"] + entry["query_seconds"], rel=1e-6
            )

    def test_looser_threshold_is_not_slower(self, small_stream):
        results = threshold_sweep(
            small_stream, thresholds=(1.2, 6.0), k=5, query_interval=200, seed=0
        )
        assert results[6.0]["query_seconds"] <= results[1.2]["query_seconds"] * 1.5


class TestTables:
    def test_dataset_table_matches_table3(self):
        rows = dataset_table()
        assert {row["dataset"] for row in rows} == {"Covtype", "Power", "Intrusion", "Drift"}
        by_name = {row["dataset"]: row for row in rows}
        assert by_name["Covtype"]["paper_num_points"] == 581_012
        assert by_name["Power"]["dimension"] == 7

    def test_memory_table_structure(self, small_stream):
        rows = memory_table(
            {"synthetic": small_stream},
            algorithms=("streamkm++", "cc"),
            k=5,
            query_interval=500,
            seed=0,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "synthetic"
        assert row["cc_points"] >= row["streamkm++_points"]
        assert row["cc_mb"] > 0

    def test_rcc_tradeoffs(self, small_stream):
        rows = rcc_tradeoffs(
            small_stream, nesting_depths=(0, 1), k=5, bucket_size=100, seed=0
        )
        assert len(rows) == 2
        assert rows[0]["outer_merge_degree"] == 2.0
        assert rows[1]["outer_merge_degree"] == 4.0
        assert all(row["stored_points"] > 0 for row in rows)


class TestScalingProfile:
    def test_structure_and_baseline(self, small_stream):
        profile = scaling_profile(
            small_stream,
            shard_counts=(1, 2),
            backends=("serial", "process"),
            k=4,
            coreset_size=100,
            seed=0,
        )
        assert set(profile) == {"serial", "process"}
        for backend in profile:
            assert set(profile[backend]) == {1, 2}
            for cell in profile[backend].values():
                assert cell["seconds"] > 0
                assert cell["points_per_second"] > 0
                assert cell["speedup_vs_baseline"] > 0
        # The 1-shard serial cell IS the baseline.
        assert profile["serial"][1]["speedup_vs_baseline"] == pytest.approx(1.0)


class TestDriftAdaptationCurve:
    def test_structure(self, small_stream):
        curves = drift_adaptation_curve(
            small_stream,
            algorithms=("cc", "window"),
            k=4,
            query_interval=1000,
            trailing_points=800,
            algorithm_options={"window": {"window_buckets": 4}},
        )
        assert set(curves) == {"cc", "window"}
        for curve in curves.values():
            assert sorted(curve) == [1000, 2000, 3000]
            assert all(cost > 0 for cost in curve.values())

    def test_window_adapts_after_regime_shift(self):
        from repro.data.stress import generate_driftburst

        points = generate_driftburst(4000, seed=0, num_segments=2)
        curves = drift_adaptation_curve(
            points,
            algorithms=("cc", "window"),
            k=5,
            query_interval=1000,
            trailing_points=800,
            algorithm_options={"window": {"window_buckets": 4}},
        )
        # After the shift at 2000 the window forgets the old regime while the
        # full-history clusterer keeps straddling both.
        final = max(curves["window"])
        assert curves["window"][final] < curves["cc"][final]


class TestSoftMembershipProfile:
    def test_structure_and_monotone_blur(self, small_stream):
        profile = soft_membership_profile(
            small_stream[:1500], fuzziness_values=(1.2, 3.0), k=4
        )
        assert set(profile) == {1.2, 3.0}
        for row in profile.values():
            assert set(row) == {
                "mean_entropy",
                "mean_max_membership",
                "soft_cost",
                "hard_cost",
                "iterations",
            }
        # Larger exponents blur the partition: entropy up, peak membership down.
        assert profile[3.0]["mean_entropy"] > profile[1.2]["mean_entropy"]
        assert profile[3.0]["mean_max_membership"] < profile[1.2]["mean_max_membership"]
