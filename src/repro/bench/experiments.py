"""Per-figure and per-table experiment drivers.

Each function reproduces one artefact from the paper's evaluation (Section 5)
and returns plain dictionaries/lists so benchmarks and examples can print or
assert on them without extra plumbing.  The paper's exact sweep values are the
defaults, but every sweep is parameterisable so the test suite can run reduced
versions quickly.

Mapping to the paper (see also DESIGN.md §3):

* :func:`cost_vs_k`                — Figure 4
* :func:`time_vs_query_interval`   — Figure 5
* :func:`cost_vs_bucket_size`      — Figure 6
* :func:`time_vs_bucket_size`      — Figure 7
* :func:`poisson_queries`          — Figures 8, 9, 10
* :func:`threshold_sweep`          — Figure 11
* :func:`dataset_table`            — Table 3
* :func:`memory_table`             — Table 4
* :func:`rcc_tradeoffs`            — Table 2

Two additional drivers exercise the query-serving pipeline beyond the paper:

* :func:`query_latency_profile`    — per-query latency percentiles and
  warm/cold/cache counters under a figure-5-style workload (any interval,
  including the q=1 stress case);
* :func:`multi_k_query_costs`      — a figure-4-style k-sweep answered by
  ONE batched multi-k query per algorithm instead of one full stream replay
  per (algorithm, k) pair;
* :func:`scaling_profile`          — ingestion-throughput scaling of the
  parallel sharded engine across shard counts and executor backends,
  against the single-structure baseline;
* :func:`drift_adaptation_curve`   — trailing-window cost of the full-history
  algorithms vs. the sliding-window and decayed clusterers over a drifting
  stream (the "window" figure);
* :func:`soft_membership_profile`  — membership sharpness (entropy, max
  membership) and hard cost of the soft clusterer across fuzziness exponents
  (the "soft" figure).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.base import StreamingConfig
from ..core.recursive_cache import RecursiveCachedTree, merge_degree_for_order
from ..coreset.bucket import Bucket, WeightedPointSet
from ..data.loaders import PAPER_SIZES, dataset_names, load_dataset
from ..kmeans.batch import weighted_kmeans
from ..kmeans.cost import kmeans_cost
from ..queries.schedule import FixedIntervalSchedule, PoissonSchedule
from .harness import RunResult, StreamingExperiment, make_algorithm, run_experiment
from .report import latency_summary

__all__ = [
    "DEFAULT_ALGORITHMS",
    "cost_vs_k",
    "time_vs_query_interval",
    "cost_vs_bucket_size",
    "time_vs_bucket_size",
    "poisson_queries",
    "threshold_sweep",
    "dataset_table",
    "memory_table",
    "rcc_tradeoffs",
    "query_latency_profile",
    "multi_k_query_costs",
    "scaling_profile",
    "drift_adaptation_curve",
    "soft_membership_profile",
]

# The algorithm line-up of the paper's figures.
DEFAULT_ALGORITHMS: tuple[str, ...] = ("sequential", "streamkm++", "cc", "rcc", "onlinecc")


def _run(
    algorithm: str,
    points: np.ndarray,
    config: StreamingConfig,
    schedule,
    **kwargs,
) -> RunResult:
    experiment = StreamingExperiment(
        algorithm=algorithm, config=config, schedule=schedule, **kwargs
    )
    return run_experiment(experiment, points)


def cost_vs_k(
    points: np.ndarray,
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50),
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    query_interval: int = 100,
    include_batch: bool = True,
    seed: int = 0,
    n_init: int = 5,
) -> dict[str, dict[int, float]]:
    """Figure 4: final k-means cost as a function of the number of clusters.

    Returns ``{algorithm: {k: cost}}``; the batch k-means++ baseline appears
    under the key ``"kmeans++"`` when ``include_batch`` is True.  ``n_init``
    controls the query-time k-means++ restarts (more restarts reduce
    local-optimum variance in the reported costs).
    """
    results: dict[str, dict[int, float]] = {name: {} for name in algorithms}
    if include_batch:
        results["kmeans++"] = {}
    for k in k_values:
        config = StreamingConfig(k=k, seed=seed, n_init=n_init)
        schedule = FixedIntervalSchedule(query_interval)
        for name in algorithms:
            run = _run(name, points, config, schedule)
            results[name][k] = run.final_cost
        if include_batch:
            batch = weighted_kmeans(points, k, rng=np.random.default_rng(seed))
            results["kmeans++"][k] = kmeans_cost(points, batch.centers)
    return results


def time_vs_query_interval(
    points: np.ndarray,
    intervals: tuple[int, ...] = (50, 100, 200, 400, 800, 1600, 3200),
    algorithms: tuple[str, ...] = ("streamkm++", "cc", "rcc", "onlinecc"),
    k: int = 30,
    seed: int = 0,
    warm_start: bool = False,
) -> dict[str, dict[int, float]]:
    """Figure 5: total runtime (seconds) over the stream vs. the query interval q.

    ``warm_start`` defaults to False: the paper's figures measure the
    from-scratch query path, and the relative timing claims asserted by the
    figure benchmarks hold in that model (warm-start serving collapses query
    cost for every coreset algorithm and is measured by its own benchmark).
    """
    config = StreamingConfig(k=k, seed=seed, warm_start=warm_start)
    results: dict[str, dict[int, float]] = {name: {} for name in algorithms}
    for interval in intervals:
        schedule = FixedIntervalSchedule(interval)
        for name in algorithms:
            run = _run(name, points, config, schedule)
            results[name][interval] = run.timing.total_seconds
    return results


def cost_vs_bucket_size(
    points: np.ndarray,
    bucket_multipliers: tuple[int, ...] = (20, 40, 60, 80, 100),
    algorithms: tuple[str, ...] = ("streamkm++", "cc", "rcc", "onlinecc"),
    k: int = 30,
    query_interval: int = 100,
    seed: int = 0,
) -> dict[str, dict[int, float]]:
    """Figure 6: final k-means cost vs. bucket size m (multiples of k)."""
    results: dict[str, dict[int, float]] = {name: {} for name in algorithms}
    schedule = FixedIntervalSchedule(query_interval)
    for multiplier in bucket_multipliers:
        config = StreamingConfig(k=k, coreset_size=multiplier * k, seed=seed)
        for name in algorithms:
            run = _run(name, points, config, schedule)
            results[name][multiplier] = run.final_cost
    return results


def time_vs_bucket_size(
    points: np.ndarray,
    bucket_multipliers: tuple[int, ...] = (20, 40, 60, 80, 100),
    algorithms: tuple[str, ...] = ("streamkm++", "cc", "rcc", "onlinecc"),
    k: int = 30,
    query_interval: int = 100,
    seed: int = 0,
    warm_start: bool = False,
) -> dict[str, dict[int, dict[str, float]]]:
    """Figure 7: average runtime per point (microseconds) vs. bucket size m.

    Returns ``{algorithm: {multiplier: {"update_us": .., "query_us": .., "total_us": ..}}}``.
    Timing figures default to the paper's from-scratch query model
    (``warm_start=False``).
    """
    results: dict[str, dict[int, dict[str, float]]] = {name: {} for name in algorithms}
    schedule = FixedIntervalSchedule(query_interval)
    for multiplier in bucket_multipliers:
        config = StreamingConfig(
            k=k, coreset_size=multiplier * k, seed=seed, warm_start=warm_start
        )
        for name in algorithms:
            run = _run(name, points, config, schedule)
            results[name][multiplier] = {
                "update_us": run.timing.update_time_per_point() * 1e6,
                "query_us": run.timing.query_time_per_point() * 1e6,
                "total_us": run.timing.total_time_per_point() * 1e6,
                "update_us_per_batch": run.timing.update_time_per_batch() * 1e6,
            }
    return results


def poisson_queries(
    points: np.ndarray,
    mean_intervals: tuple[int, ...] = (50, 100, 200, 400, 800, 1600, 3200),
    algorithms: tuple[str, ...] = ("streamkm++", "cc", "rcc", "onlinecc"),
    k: int = 30,
    seed: int = 0,
    warm_start: bool = False,
) -> dict[str, dict[int, dict[str, float]]]:
    """Figures 8–10: per-point update/query/total time under Poisson query arrivals.

    The paper parameterises by arrival rate lambda; we index results by the
    mean inter-arrival interval ``1 / lambda`` (in points) which is the same
    sweep expressed in more readable units.  Timing figures default to the
    paper's from-scratch query model (``warm_start=False``).
    """
    config = StreamingConfig(k=k, seed=seed, warm_start=warm_start)
    results: dict[str, dict[int, dict[str, float]]] = {name: {} for name in algorithms}
    for mean_interval in mean_intervals:
        schedule = PoissonSchedule.from_mean_interval(mean_interval, seed=seed)
        for name in algorithms:
            run = _run(name, points, config, schedule)
            results[name][mean_interval] = {
                "update_us": run.timing.update_time_per_point() * 1e6,
                "query_us": run.timing.query_time_per_point() * 1e6,
                "total_us": run.timing.total_time_per_point() * 1e6,
                "update_us_per_batch": run.timing.update_time_per_batch() * 1e6,
                "num_queries": float(run.num_queries),
            }
    return results


def threshold_sweep(
    points: np.ndarray,
    thresholds: tuple[float, ...] = (1.2, 2.4, 3.6, 4.8, 6.0),
    k: int = 30,
    query_interval: int = 100,
    seed: int = 0,
    warm_start: bool = False,
) -> dict[float, dict[str, float]]:
    """Figure 11: OnlineCC total update/query time vs. the switch threshold alpha.

    Timing figures default to the paper's from-scratch query model
    (``warm_start=False``).
    """
    config = StreamingConfig(k=k, seed=seed, warm_start=warm_start)
    schedule = FixedIntervalSchedule(query_interval)
    results: dict[float, dict[str, float]] = {}
    for alpha in thresholds:
        run = _run(
            "onlinecc", points, config, schedule, switch_threshold=alpha
        )
        results[alpha] = {
            "update_seconds": run.timing.update_seconds,
            "query_seconds": run.timing.query_seconds,
            "total_seconds": run.timing.total_seconds,
            "final_cost": run.final_cost,
        }
    return results


def query_latency_profile(
    points: np.ndarray,
    algorithms: tuple[str, ...] = ("cc", "rcc"),
    k: int = 10,
    query_interval: int = 1,
    seed: int = 0,
    warm_start: bool = True,
    coreset_size: int | None = None,
) -> dict[str, dict[str, float]]:
    """Per-query latency percentiles under a figure-5-style fixed-interval workload.

    With ``query_interval=1`` (a query after every point) this is the
    query-serving stress test: steady-state latency is dominated by the
    center-extraction path, which is exactly what warm-start refinement
    accelerates.  Returns, per algorithm, the
    :func:`~repro.bench.report.latency_summary` percentiles plus the serving
    counters (warm/cold/drift, cache hits/misses).

    Set ``warm_start=False`` to measure the from-scratch query path (the
    pre-serving-layer behavior) for comparison.
    """
    config = StreamingConfig(
        k=k, coreset_size=coreset_size, seed=seed, warm_start=warm_start
    )
    schedule = FixedIntervalSchedule(query_interval)
    results: dict[str, dict[str, float]] = {}
    for name in algorithms:
        run = _run(name, points, config, schedule)
        row = latency_summary(run.query_latencies)
        row.update(
            {
                "warm": float(run.serving.warm_queries),
                "cold": float(run.serving.cold_queries),
                "drift_fallbacks": float(run.serving.drift_fallbacks),
                "cache_hits": float(run.serving.cache_hits),
                "cache_misses": float(run.serving.cache_misses),
                "final_cost": run.final_cost,
            }
        )
        results[name] = row
    return results


def multi_k_query_costs(
    points: np.ndarray,
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50),
    algorithms: tuple[str, ...] = ("ct", "cc", "rcc", "onlinecc"),
    build_k: int | None = None,
    include_batch: bool = False,
    seed: int = 0,
    n_init: int = 5,
) -> dict[str, dict[int, float]]:
    """Figure-4-style k-sweep served by ONE batched multi-k query per algorithm.

    Unlike :func:`cost_vs_k` — which replays the whole stream once per
    ``(algorithm, k)`` pair so that the *structure* is also built for each
    ``k`` — this driver ingests the stream once per algorithm (with the
    structure sized for ``build_k``, default ``max(k_values)``) and then
    answers the entire sweep from one coreset assembly via
    ``query_multi_k``.  Returns ``{algorithm: {k: cost over the stream}}``,
    with a ``"kmeans++"`` batch baseline when ``include_batch`` is set.
    """
    build = build_k if build_k is not None else max(k_values)
    results: dict[str, dict[int, float]] = {}
    data = np.asarray(points, dtype=np.float64)
    for name in algorithms:
        config = StreamingConfig(k=build, seed=seed, n_init=n_init)
        algorithm = make_algorithm(name, config)
        algorithm.insert_batch(data)
        sweep = algorithm.query_multi_k(k_values)
        results[name] = {
            k: kmeans_cost(data, result.centers) for k, result in sweep.items()
        }
    if include_batch:
        results["kmeans++"] = {}
        for k in k_values:
            batch = weighted_kmeans(points, k, rng=np.random.default_rng(seed))
            results["kmeans++"][k] = kmeans_cost(points, batch.centers)
    return results


def scaling_profile(
    points: np.ndarray,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    backends: tuple[str, ...] = ("process",),
    algorithm: str = "cc",
    k: int = 20,
    coreset_size: int | None = None,
    routing: str = "round_robin",
    seed: int = 0,
    chunk_size: int = 4096,
    repeats: int = 1,
) -> dict[str, dict[int, dict[str, float]]]:
    """Ingestion-throughput scaling of the sharded engine vs. the 1-shard baseline.

    The stream is ingested in ``chunk_size`` batches with no interleaved
    queries; for parallel backends the timed region ends at the engine's
    :meth:`~repro.parallel.engine.ShardedEngine.flush` barrier, so queued
    work cannot be hidden.  The baseline (and the ``("serial", 1)`` cell) is
    the plain single-structure clusterer, which is what the sharded engine
    must beat; every other cell — including 1-shard cells of parallel
    backends, which isolate pure queue/handoff overhead — runs a real
    :class:`~repro.parallel.engine.ShardedEngine` on that backend.

    Returns ``{backend: {shard_count: {"seconds", "points_per_second",
    "speedup_vs_baseline"}}}``; best-of-``repeats`` wall-clock per cell.
    """
    data = np.asarray(points, dtype=np.float64)
    n = data.shape[0]
    config = StreamingConfig(k=k, coreset_size=coreset_size, seed=seed)

    def build(shards: int, backend: str):
        if shards == 1 and backend == "serial":
            return make_algorithm(algorithm, config)
        from ..parallel.engine import ShardedEngine

        return ShardedEngine(
            config,
            num_shards=shards,
            backend=backend,
            routing=routing,
            structure=algorithm.lower(),
        )

    def measure(shards: int, backend: str) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            clusterer = build(shards, backend)
            try:
                start = time.perf_counter()
                for offset in range(0, n, chunk_size):
                    clusterer.insert_batch(data[offset : offset + chunk_size])
                flush = getattr(clusterer, "flush", None)
                if flush is not None:
                    flush()
                best = min(best, time.perf_counter() - start)
            finally:
                closer = getattr(clusterer, "close", None)
                if closer is not None:
                    closer()
        return best

    baseline_seconds = measure(1, "serial")
    results: dict[str, dict[int, dict[str, float]]] = {}
    for backend in backends:
        results[backend] = {}
        for shards in shard_counts:
            if shards == 1 and backend == "serial":
                seconds = baseline_seconds
            else:
                seconds = measure(shards, backend)
            results[backend][shards] = {
                "seconds": seconds,
                "points_per_second": n / seconds if seconds > 0 else float("inf"),
                "speedup_vs_baseline": baseline_seconds / seconds if seconds > 0 else 0.0,
            }
    return results


def drift_adaptation_curve(
    points: np.ndarray,
    algorithms: tuple[str, ...] = ("cc", "window", "decay"),
    k: int = 10,
    query_interval: int = 500,
    trailing_points: int = 1000,
    seed: int = 0,
    algorithm_options: dict[str, dict] | None = None,
) -> dict[str, dict[int, float]]:
    """Trailing-window cost along a (drifting) stream, per algorithm.

    Replays ``points`` in order, querying every ``query_interval`` points and
    scoring each answer's centers against only the most recent
    ``trailing_points`` of the stream — the regime where full-history
    algorithms pay for remembering stale clusters and the window/decay
    clusterers adapt.  Returns ``{algorithm: {stream position: trailing
    cost}}``.  Per-algorithm option overrides come through
    ``algorithm_options`` (e.g. ``{"window": {"window_buckets": 4}}``).
    """
    data = np.asarray(points, dtype=np.float64)
    options = algorithm_options or {}
    results: dict[str, dict[int, float]] = {}
    for name in algorithms:
        config = StreamingConfig(k=k, seed=seed)
        algorithm = make_algorithm(name, config, **options.get(name, {}))
        curve: dict[int, float] = {}
        try:
            for position in range(query_interval, data.shape[0] + 1, query_interval):
                algorithm.insert_batch(data[position - query_interval : position])
                centers = algorithm.query().centers
                recent = data[max(0, position - trailing_points) : position]
                curve[position] = kmeans_cost(recent, centers)
        finally:
            closer = getattr(algorithm, "close", None)
            if closer is not None:
                closer()
        results[name] = curve
    return results


def soft_membership_profile(
    points: np.ndarray,
    fuzziness_values: tuple[float, ...] = (1.2, 1.5, 2.0, 3.0),
    k: int = 10,
    seed: int = 0,
) -> dict[float, dict[str, float]]:
    """Membership sharpness vs. the fuzziness exponent of the soft clusterer.

    Ingests the stream once per exponent, queries, and summarises the fuzzy
    solution over the query coreset: mean membership entropy (nats; 0 =
    perfectly hard, ``log k`` = uniform), mean max membership, the fuzzy
    objective, and the hard k-means cost of the served centers over the whole
    stream.  Returns ``{fuzziness: {...}}``.
    """
    data = np.asarray(points, dtype=np.float64)
    results: dict[float, dict[str, float]] = {}
    for fuzziness in fuzziness_values:
        config = StreamingConfig(k=k, seed=seed)
        clusterer = make_algorithm("soft", config, fuzziness=fuzziness)
        clusterer.insert_batch(data)
        result = clusterer.query()
        soft = clusterer.last_soft
        memberships = soft.memberships
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(memberships > 0, np.log(memberships), 0.0)
        entropy = float(-(memberships * logs).sum(axis=1).mean())
        results[float(fuzziness)] = {
            "mean_entropy": entropy,
            "mean_max_membership": float(memberships.max(axis=1).mean()),
            "soft_cost": float(soft.cost),
            "hard_cost": kmeans_cost(data, result.centers),
            "iterations": float(soft.iterations),
        }
    return results


def dataset_table(scale: str = "default") -> list[dict[str, object]]:
    """Table 3: the datasets, their sizes, dimensions, and descriptions."""
    rows: list[dict[str, object]] = []
    for name in dataset_names():
        info = load_dataset(name, scale=scale)
        paper_n, paper_d = PAPER_SIZES[name]
        rows.append(
            {
                "dataset": info.name,
                "num_points": info.num_points,
                "dimension": info.dimension,
                "paper_num_points": paper_n,
                "paper_dimension": paper_d,
                "description": info.description,
            }
        )
    return rows


def memory_table(
    datasets: dict[str, np.ndarray],
    algorithms: tuple[str, ...] = ("streamkm++", "cc", "rcc", "onlinecc"),
    k: int = 30,
    query_interval: int = 100,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Table 4: memory cost (points stored and MB) per dataset per algorithm."""
    config = StreamingConfig(k=k, seed=seed)
    schedule = FixedIntervalSchedule(query_interval)
    rows: list[dict[str, object]] = []
    for dataset_name, points in datasets.items():
        row: dict[str, object] = {"dataset": dataset_name}
        for name in algorithms:
            run = _run(name, points, config, schedule)
            row[f"{name}_points"] = run.memory.points_stored
            row[f"{name}_mb"] = run.memory.megabytes
        rows.append(row)
    return rows


def rcc_tradeoffs(
    points: np.ndarray,
    nesting_depths: tuple[int, ...] = (0, 1, 2, 3),
    k: int = 30,
    bucket_size: int | None = None,
    seed: int = 0,
) -> list[dict[str, float]]:
    """Table 2 (empirical version): RCC behaviour as a function of nesting depth.

    For each nesting depth the stream is ingested bucket-by-bucket, a query is
    issued after every bucket, and we record the maximum coreset level ever
    returned, the stored-point footprint, and the outer merge degree.
    """
    config = StreamingConfig(k=k, coreset_size=bucket_size, seed=seed)
    m = config.bucket_size
    data = np.asarray(points, dtype=np.float64)
    num_buckets = data.shape[0] // m
    rows: list[dict[str, float]] = []
    for depth in nesting_depths:
        constructor = config.make_constructor()
        structure = RecursiveCachedTree(constructor, nesting_depth=depth)
        max_query_level = 0
        for index in range(num_buckets):
            block = data[index * m : (index + 1) * m]
            bucket = Bucket(
                data=WeightedPointSet.from_points(block),
                start=index + 1,
                end=index + 1,
                level=0,
            )
            structure.insert_bucket(bucket)
            result = structure.query_coreset_bucket()
            if result is not None:
                max_query_level = max(max_query_level, result.level)
        rows.append(
            {
                "nesting_depth": float(depth),
                "outer_merge_degree": float(merge_degree_for_order(depth)),
                "max_query_level": float(max_query_level),
                "stored_points": float(structure.stored_points()),
                "num_buckets": float(num_buckets),
            }
        )
    return rows
