"""Run the quick-scale benchmarks and write a machine-readable JSON report.

The report feeds the ``bench-regression`` CI gate: a handful of headline
metrics — batch-ingestion throughput in points/second and median warm query
latency in microseconds for the CC and RCC clusterers, an update-path
*coreset-merge* microbenchmark (merges/second on a fixed ``(r*m, d)`` input,
isolating the kernel layer from driver overhead), float32 variants of the
ingest and merge paths, a high-dimensional (d=128, k=50) workload with
and without JL sketching, a serving-plane workload (reader p99 latency
under live ingest and with ingest paused, plus mean snapshot staleness),
the elastic plane's live-reshard pause (quiesce-to-resume wall time of
a 4→8 reshard on the serial backend), the scenario algorithms
(sliding-window ingest throughput with live bucket expiry, and the soft
clusterer's fuzzy-refined query latency), and the durable-ingest path
(per-batch write-ahead-journal append cost, journal replay rate, and a
non-normalised plain-vs-supervised ingest overhead section that CI gates
at 10%) — plus a *calibration* measurement: the wall-clock of
a fixed numpy workload shaped like the library's hot loops (GEMM +
reduction + sampling).  The regression checker
(``tools/check_bench_regression.py``) normalises every metric by the
calibration time, so comparisons against a baseline recorded on a different
machine measure the *code*, not the hardware.

Usage::

    PYTHONPATH=src python tools/run_quick_bench.py --output BENCH_pr10.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.base import StreamingConfig  # noqa: E402
from repro.core.driver import (  # noqa: E402
    CachedCoresetTreeClusterer,
    RecursiveCachedClusterer,
)
from repro.coreset.bucket import WeightedPointSet  # noqa: E402
from repro.coreset.construction import CoresetConfig, CoresetConstructor  # noqa: E402
from repro.data.loaders import load_dataset  # noqa: E402
from repro.data.synthetic import GaussianMixtureSpec, generate_mixture  # noqa: E402
from repro.extensions.decay import SlidingWindowClusterer  # noqa: E402
from repro.extensions.soft import SoftClusteringClusterer  # noqa: E402
from repro.kernels.sketch import sketch_for  # noqa: E402

SCHEMA_VERSION = 1

#: Quick-scale workload: small enough for a CI smoke job, large enough that
#: the vectorized paths (not fixed overheads) dominate.
NUM_POINTS = 16_000
NUM_QUERIES = 30
K = 20
#: Merges timed per repeat of the update-path microbenchmark.
MERGE_COUNT = 60
#: High-dimensional sketch workload: dimensionality, cluster count, and the
#: target dimensionality it is sketched down to.  The higher k matters as much
#: as the higher d: every extra seeding round adds one more (n, d) pass that
#: sketching shrinks to (n, s), so the d-independent per-merge overheads
#: (sampling, cumsums, dispatch) are amortised and the GEMM ratio shows
#: through.  At k=20 the same d=128 stream is overhead-bound and the sketch
#: win is under 2x — which is exactly the regime the gate is not about.
#: s = d/4 keeps the clustering cost within a fraction of a percent of the
#: exact path on this mixture (s = 8 is measurably too coarse to separate
#: 20 clusters); see ``tests/kernels/test_sketch.py`` for the property-tested
#: envelope.
HIGH_DIM = 128
HIGH_K = 50
SKETCH_DIM = 32
#: Serving workload: queries per latency pass and writer batch size.
SERVING_QUERIES = 100
SERVING_BATCH = 400
#: Elastic workload: shard counts and stream size for the reshard-pause gate.
RESHARD_FROM = 4
RESHARD_TO = 8
RESHARD_POINTS = 8_000


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed numpy workload shaped like the library's hot loops."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(4096, 54))
    centers = rng.normal(size=(64, 54))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(20):
            d = pts @ centers.T
            d -= 0.5 * np.einsum("ij,ij->i", centers, centers)[None, :]
            labels = np.argmax(d, axis=1)
            np.bincount(labels, minlength=centers.shape[0])
        best = min(best, time.perf_counter() - start)
    return best


def _measure(clusterer_factory, points: np.ndarray, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` (ingest points/s, median warm query latency in µs)."""
    best_pts_per_s = 0.0
    best_median_us = float("inf")
    for _ in range(repeats):
        clusterer = clusterer_factory()
        start = time.perf_counter()
        clusterer.insert_batch(points)
        ingest_seconds = time.perf_counter() - start
        best_pts_per_s = max(best_pts_per_s, points.shape[0] / ingest_seconds)

        latencies = []
        for _ in range(NUM_QUERIES):
            start = time.perf_counter()
            clusterer.query()
            latencies.append(time.perf_counter() - start)
        best_median_us = min(best_median_us, statistics.median(latencies) * 1e6)
    return best_pts_per_s, best_median_us


def _measure_ingest_pair(
    factories: list, points: np.ndarray, repeats: int
) -> list[float]:
    """Interleaved best-of ingest throughput for paired variants.

    The d=128 gate is a *ratio* between the exact and sketched variants, so
    the two must be timed back-to-back within each repeat: measuring one
    variant's repeats en bloc and the other's a minute later lets thermal /
    contention drift land entirely on one side of the ratio.
    """
    best = [0.0] * len(factories)
    for _ in range(repeats):
        for i, factory in enumerate(factories):
            clusterer = factory()
            start = time.perf_counter()
            clusterer.insert_batch(points)
            elapsed = time.perf_counter() - start
            best[i] = max(best[i], points.shape[0] / elapsed)
    return best


def _measure_merges(
    points: np.ndarray,
    dtype: str,
    repeats: int,
    sketch_dim: int | None = None,
    k: int = K,
) -> float:
    """Best-of-``repeats`` coreset merges/second on a fixed ``(2m, d)`` input.

    Times ``CoresetConstructor.build_for_span`` directly — the hot kernel of
    every tree carry — on a steady-state-shaped input (one ``r * m`` union of
    two base buckets), with distinct span keys so each merge draws its own
    randomness exactly like the live tree.  With ``sketch_dim`` the input
    carries its sketched view, built outside the clock: in a live run every
    point is projected exactly once, at ingest, so the projection is part of
    the ingest metric, not the per-merge cost.
    """
    m = StreamingConfig(k=k, seed=0).bucket_size
    block = np.ascontiguousarray(points[: 2 * m], dtype=np.dtype(dtype))
    best = 0.0
    for _ in range(repeats):
        constructor = CoresetConstructor(
            CoresetConfig(k=k, coreset_size=m, sketch_dim=sketch_dim), seed=0
        )
        data = WeightedPointSet.from_points(
            block, sketch=sketch_for(constructor.sketcher, block)
        )
        for i in range(3):  # warm the workspace pools
            constructor.build_for_span(data, level=1, start=2 * i + 1, end=2 * i + 2)
        start = time.perf_counter()
        for i in range(MERGE_COUNT):
            constructor.build_for_span(
                data, level=1, start=2 * i + 101, end=2 * i + 102
            )
        elapsed = time.perf_counter() - start
        best = max(best, MERGE_COUNT / elapsed)
    return best


def _serving_pass(reader, rng: np.random.Generator) -> tuple[float, float]:
    """(p99 latency µs, mean snapshot staleness ms) over one query pass."""
    latencies = np.empty(SERVING_QUERIES)
    staleness_ms = np.empty(SERVING_QUERIES)
    for index in range(SERVING_QUERIES):
        k = int(rng.choice((10, 20, 30)))
        start = time.perf_counter()
        result = reader.query(k)
        latencies[index] = time.perf_counter() - start
        staleness_ms[index] = result.staleness_seconds * 1e3
    return float(np.percentile(latencies, 99) * 1e6), float(staleness_ms.mean())


def _measure_serving(points: np.ndarray, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` serving-plane SLO numbers.

    One reader runs closed-loop against a plane whose writer keeps
    publishing (IngestLoop); the same reader is then measured with ingest
    paused.  The live/paused pair is the SLO the serving tests gate on
    (live p99 within 2x of paused); mean staleness is the freshness cost of
    the snapshot cadence at this batch size.
    """
    from repro.serving.loadgen import IngestLoop
    from repro.serving.plane import ServingPlane

    best_live = best_paused = best_staleness = float("inf")
    for _ in range(repeats):
        plane = ServingPlane(CachedCoresetTreeClusterer(StreamingConfig(k=K, seed=0)))
        try:
            plane.ingest(points[:SERVING_BATCH])
            loop = IngestLoop(plane, points, batch_size=SERVING_BATCH)
            loop.start()
            try:
                reader = plane.reader(seed=0)
                rng = np.random.default_rng(0)
                _serving_pass(reader, rng)  # warm the engine and caches

                loop.pause()
                time.sleep(0.05)  # let any in-flight batch settle
                paused_p99, _ = _serving_pass(reader, rng)

                loop.resume()
                time.sleep(0.05)
                live_p99, staleness_ms = _serving_pass(reader, rng)
            finally:
                loop.stop()
        finally:
            plane.close()
        best_live = min(best_live, live_p99)
        best_paused = min(best_paused, paused_p99)
        best_staleness = min(best_staleness, staleness_ms)
    return {
        "serving_p99_us": best_live,
        "serving_p99_us_ingest_paused": best_paused,
        "snapshot_staleness_ms": best_staleness,
    }


def _measure_reshard_pause(points: np.ndarray, repeats: int) -> float:
    """Best-of-``repeats`` live-reshard pause in ms (4→8 shards, serial backend).

    The pause is the engine-reported quiesce-to-resume window during which
    ingest is blocked: the cross-shard coreset collect, the backend
    teardown/rebuild, and the adoption of the redistributed pieces.  The
    serial backend keeps worker start-up out of the number, so it measures
    the reshard itself.
    This is the elastic plane's headline latency — a regression here means
    live reshards stall the writer.
    """
    from repro.parallel import ShardedEngine

    best = float("inf")
    for _ in range(repeats):
        with ShardedEngine(
            StreamingConfig(k=K, seed=0),
            num_shards=RESHARD_FROM,
            backend="serial",
        ) as engine:
            engine.insert_batch(points[:RESHARD_POINTS])
            engine.flush()
            report = engine.reshard(RESHARD_TO)
        best = min(best, report.pause_seconds * 1e3)
    return best


def _measure_durable(points: np.ndarray, repeats: int) -> tuple[dict[str, float], dict]:
    """Best-of-``repeats`` durability numbers for the ingest journal.

    ``wal_append_us`` is the median cost of journalling one
    ``SERVING_BATCH``-point batch (encode + CRC + buffered write;
    ``fsync_every=0`` so the metric tracks the code path, not the disk);
    ``recovery_replay_pts_s`` is the decode-side rate of ``replay_wal``
    over the journal just written — the dominant term of crash-recovery
    time once the snapshot is restored.  The plain-vs-supervised ingest
    pair is interleaved per repeat (same reasoning as the sketch pair) and
    returned as a separate *non-normalised* section: the overhead is a
    ratio of two rates from the same machine and run, so calibration
    would cancel out anyway, and CI gates it directly at 10%.
    """
    import shutil
    import tempfile

    from repro.checkpoint.store import CheckpointStore
    from repro.resilience import IngestSupervisor, WriteAheadLog, replay_wal
    from repro.serving.plane import ServingPlane

    batches = [
        points[start : start + SERVING_BATCH]
        for start in range(0, len(points), SERVING_BATCH)
    ]
    config = StreamingConfig(k=K, seed=0)
    best_append_us = float("inf")
    best_replay = 0.0
    best_plain = best_durable = 0.0
    best_overhead = float("inf")
    for _ in range(repeats):
        root = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            # Journal append cost, isolated from clustering.
            appends = []
            position = 0
            with WriteAheadLog(root / "wal", fsync_every=0) as wal:
                for batch in batches:
                    start = time.perf_counter()
                    wal.append(batch, position)
                    appends.append(time.perf_counter() - start)
                    position += batch.shape[0]
            best_append_us = min(best_append_us, statistics.median(appends) * 1e6)

            # Replay rate: decode + CRC-verify the journal just written.
            start = time.perf_counter()
            replayed = sum(r.batch.shape[0] for r in replay_wal(root / "wal"))
            best_replay = max(best_replay, replayed / (time.perf_counter() - start))

            # Interleaved plain vs supervised (journalled) ingest pair.
            plane = ServingPlane(CachedCoresetTreeClusterer(config))
            try:
                start = time.perf_counter()
                for batch in batches:
                    plane.ingest(batch.copy())
                plain = points.shape[0] / (time.perf_counter() - start)
            finally:
                plane.close()

            plane = ServingPlane(CachedCoresetTreeClusterer(config))
            supervisor = IngestSupervisor(
                plane,
                CheckpointStore(root / "ckpts", keep_last=2),
                root / "wal-durable",
                fsync_every=0,
            )
            try:
                start = time.perf_counter()
                for batch in batches:
                    supervisor.ingest(batch.copy())
                durable = points.shape[0] / (time.perf_counter() - start)
            finally:
                supervisor.close(final_checkpoint=False)
                plane.close()
            best_plain = max(best_plain, plain)
            best_durable = max(best_durable, durable)
            # The overhead is paired within the repeat (same thermal /
            # contention conditions for both sides) and best-of across
            # repeats, like every other metric: noise only ever inflates
            # it, so the minimum is the tightest estimate — and a negative
            # pair means the true overhead is below the noise floor.
            best_overhead = min(best_overhead, 100.0 * (1.0 - durable / plain))
        finally:
            shutil.rmtree(root, ignore_errors=True)
    metrics = {
        "wal_append_us": best_append_us,
        "recovery_replay_pts_s": best_replay,
    }
    section = {
        "plain_ingest_pts_s": best_plain,
        "durable_ingest_pts_s": best_durable,
        "overhead_pct": max(0.0, best_overhead),
    }
    return metrics, section


def run(repeats: int) -> dict:
    """Execute the quick benchmark suite and return the report dict."""
    points = load_dataset("covtype", num_points=NUM_POINTS, seed=0).points
    config = StreamingConfig(k=K, seed=0)

    metrics: dict[str, dict] = {}
    for name, factory in (
        ("cc", lambda: CachedCoresetTreeClusterer(config)),
        ("rcc", lambda: RecursiveCachedClusterer(config)),
    ):
        pts_per_s, median_us = _measure(factory, points, repeats)
        metrics[f"{name}_ingest_pts_per_s"] = {
            "value": pts_per_s,
            "higher_is_better": True,
        }
        metrics[f"{name}_query_median_us"] = {
            "value": median_us,
            "higher_is_better": False,
        }

    # Opt-in float32 ingest path (the stream is cast once, outside the clock,
    # exactly as the harness does for dtype="float32" runs).
    config32 = StreamingConfig(k=K, seed=0, dtype="float32")
    points32 = points.astype(np.float32)
    pts_per_s, _ = _measure(
        lambda: CachedCoresetTreeClusterer(config32), points32, repeats
    )
    metrics["cc_ingest_pts_per_s_float32"] = {
        "value": pts_per_s,
        "higher_is_better": True,
    }

    # Update-path merge microbenchmark, both dtypes.
    metrics["merge_updates_per_s"] = {
        "value": _measure_merges(points, "float64", repeats),
        "higher_is_better": True,
    }
    metrics["merge_updates_per_s_float32"] = {
        "value": _measure_merges(points, "float32", repeats),
        "higher_is_better": True,
    }

    # High-dimensional, higher-k workload, exact vs JL-sketched: per-merge
    # distance math scales with k * n * d, so this is where sketching pays.
    # Same synthetic mixture for both variants; the sketched ingest metric
    # includes the per-batch projection cost (points are projected once, at
    # ingest).
    hd_points, _ = generate_mixture(
        GaussianMixtureSpec(dimension=HIGH_DIM, num_clusters=K),
        NUM_POINTS,
        rng=np.random.default_rng(7),
    )
    hd_config = StreamingConfig(k=HIGH_K, seed=0)
    sketch_config = StreamingConfig(k=HIGH_K, seed=0, sketch_dim=SKETCH_DIM)
    exact_rate, sketch_rate = _measure_ingest_pair(
        [
            lambda: CachedCoresetTreeClusterer(hd_config),
            lambda: CachedCoresetTreeClusterer(sketch_config),
        ],
        hd_points,
        repeats,
    )
    metrics[f"cc_ingest_pts_per_s_d{HIGH_DIM}"] = {
        "value": exact_rate,
        "higher_is_better": True,
    }
    metrics[f"cc_ingest_pts_per_s_d{HIGH_DIM}_sketch"] = {
        "value": sketch_rate,
        "higher_is_better": True,
    }
    # Same interleaving for the merge microbenchmark pair.
    merge_exact = merge_sketch = 0.0
    for _ in range(repeats):
        merge_exact = max(
            merge_exact, _measure_merges(hd_points, "float64", 1, k=HIGH_K)
        )
        merge_sketch = max(
            merge_sketch,
            _measure_merges(
                hd_points, "float64", 1, sketch_dim=SKETCH_DIM, k=HIGH_K
            ),
        )
    metrics[f"merge_updates_per_s_d{HIGH_DIM}"] = {
        "value": merge_exact,
        "higher_is_better": True,
    }
    metrics[f"merge_updates_per_s_d{HIGH_DIM}_sketch"] = {
        "value": merge_sketch,
        "higher_is_better": True,
    }

    # Scenario algorithms: window ingest exercises live bucket expiry on
    # every bucket past the horizon; soft queries pay the engine's hard
    # solve plus the fuzzy c-means refinement over the same coreset.
    window_rate, _ = _measure(
        lambda: SlidingWindowClusterer(config, window_buckets=20), points, repeats
    )
    metrics["window_ingest_pts_s"] = {"value": window_rate, "higher_is_better": True}
    _, soft_us = _measure(lambda: SoftClusteringClusterer(config), points, repeats)
    metrics["soft_query_us"] = {"value": soft_us, "higher_is_better": False}

    # Serving plane: reader-observed p99 with the writer publishing vs
    # paused, plus the snapshot-freshness cost of the publish cadence.
    for name, value in _measure_serving(points, repeats).items():
        metrics[name] = {"value": value, "higher_is_better": False}

    # Elastic plane: quiesce-to-resume pause of a live 4→8 reshard.
    metrics["reshard_pause_ms"] = {
        "value": _measure_reshard_pause(points, repeats),
        "higher_is_better": False,
    }

    # Durable ingest: journal append cost, replay rate, and the plain-vs-
    # supervised overhead pair (kept non-normalised; CI gates the ratio).
    durable_metrics, wal_section = _measure_durable(points, repeats)
    metrics["wal_append_us"] = {
        "value": durable_metrics["wal_append_us"],
        "higher_is_better": False,
    }
    metrics["recovery_replay_pts_s"] = {
        "value": durable_metrics["recovery_replay_pts_s"],
        "higher_is_better": True,
    }

    return {
        "schema": SCHEMA_VERSION,
        "calibration_seconds": calibrate(),
        "workload": {
            "num_points": NUM_POINTS,
            "num_queries": NUM_QUERIES,
            "k": K,
            "high_dim": HIGH_DIM,
            "high_dim_k": HIGH_K,
            "sketch_dim": SKETCH_DIM,
            "serving_queries": SERVING_QUERIES,
            "serving_batch": SERVING_BATCH,
            "reshard_from": RESHARD_FROM,
            "reshard_to": RESHARD_TO,
            "reshard_points": RESHARD_POINTS,
        },
        "metrics": metrics,
        "wal": wal_section,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the suite and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_pr10.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    report = run(args.repeats)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"calibration: {report['calibration_seconds'] * 1e3:.1f} ms")
    for name, entry in sorted(report["metrics"].items()):
        print(f"{name}: {entry['value']:.1f}")
    print(f"wal overhead: {report['wal']['overhead_pct']:.1f}%")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
