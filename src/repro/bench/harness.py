"""The experiment harness: replay a stream against an algorithm and a query schedule.

This is the machinery behind every figure and table in the paper's Section 5:
the stream is fed to a :class:`~repro.core.base.StreamingClusterer` in
maximal batches between query events (``ingest_mode="batch"``, the default,
exercising the vectorized ``insert_batch`` pipeline) or point-by-point
(``ingest_mode="point"``, the paper's original measurement style); whenever
the query schedule says a query is due, the clusterer is asked for centers;
update time (per point *and* per batch), query time, memory, and the final
clustering cost are recorded.

Algorithm construction goes through the
:class:`~repro.core.registry.AlgorithmRegistry` so that benchmarks, examples,
and tests refer to algorithms by the same names the paper uses
("sequential", "streamkm++", "cc", "rcc", "onlinecc", ...).
:func:`make_algorithm` is a thin back-compat shim over
:meth:`~repro.core.registry.AlgorithmRegistry.create`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.base import ClusteringStructure, StreamingClusterer, StreamingConfig
from ..core.registry import default_registry
from ..data.stream import PointStream
from ..kmeans.cost import kmeans_cost
from ..metrics.memory import MemoryUsage
from ..metrics.timing import TimingBreakdown
from ..queries.schedule import FixedIntervalSchedule, QuerySchedule

__all__ = [
    "ALGORITHM_NAMES",
    "make_algorithm",
    "RunResult",
    "ServingStats",
    "StreamingExperiment",
    "collect_serving_stats",
    "run_experiment",
]

#: Canonical algorithm names, in registry order (derived, not hand-kept).
ALGORITHM_NAMES: tuple[str, ...] = default_registry().names()


def make_algorithm(
    name: str,
    config: StreamingConfig,
    nesting_depth: int = 3,
    switch_threshold: float = 1.2,
    shards: int = 1,
    backend: str = "serial",
    routing: str = "round_robin",
    **options,
) -> StreamingClusterer:
    """Instantiate a streaming clusterer by its paper name.

    Back-compat shim over :meth:`~repro.core.registry.AlgorithmRegistry.
    create`: the legacy ``nesting_depth`` / ``switch_threshold`` keywords are
    forwarded only to the algorithms whose options declare those fields
    (matching the old "ignored by other algorithms" contract), and any
    additional keyword becomes a typed option override (``window_buckets=4``,
    ``fuzziness=1.5``, ...) validated by the registry.

    Parameters
    ----------
    name:
        A registered algorithm name — ``"sequential"``, ``"streamkm++"``,
        ``"ct"``, ``"cc"``, ``"rcc"``, ``"onlinecc"``, ``"window"``,
        ``"decay"``, or ``"soft"`` (case-insensitive).
    config:
        Shared streaming configuration (k, bucket size, merge degree, seed).
    nesting_depth:
        RCC nesting depth (ignored by other algorithms).
    switch_threshold:
        OnlineCC's fallback threshold alpha (ignored by other algorithms).
    shards:
        With ``shards > 1`` the coreset-tree algorithms (ct/cc/rcc) are run
        on the parallel sharded engine: one structure per shard, routed
        batches, merged-coreset queries.  Other algorithms reject sharding.
    backend / routing:
        Executor backend and routing policy for the sharded engine (see
        :class:`~repro.parallel.engine.ShardedEngine`); ignored when
        ``shards == 1``.
    """
    registry = default_registry()
    spec = registry.get(name)
    option_fields = {f.name for f in spec.option_fields}
    # The legacy keywords carry defaults, so they only count as overrides for
    # algorithms that actually declare the field (old call sites pass them
    # unconditionally and expect other algorithms to ignore them).
    legacy = {"nesting_depth": nesting_depth, "switch_threshold": switch_threshold}
    merged = dict(options)
    for key, value in legacy.items():
        if key in option_fields and key not in merged:
            merged[key] = value
    return registry.create(
        spec.name,
        config,
        shards=shards,
        backend=backend,
        routing=routing,
        **merged,
    )


def collect_serving_stats(algorithm: StreamingClusterer) -> "ServingStats":
    """Read the serving-pipeline counters off any clusterer, tolerating absence.

    Coreset-backed algorithms expose a ``query_engine`` (warm/cold/drift
    counters) and a structure with ``cache_stats()``; baselines that bypass
    the serving pipeline yield all-zero stats.
    """
    engine = getattr(algorithm, "query_engine", None)
    structure = getattr(algorithm, "structure", None)
    if structure is None:
        structure = getattr(algorithm, "cached_tree", None)
    cache = None
    if isinstance(structure, ClusteringStructure):
        cache = structure.cache_stats()
    elif hasattr(algorithm, "cache_stats"):
        # The sharded engine aggregates per-shard cache counters itself.
        cache = algorithm.cache_stats()
    return ServingStats(
        warm_queries=engine.warm_queries if engine is not None else 0,
        cold_queries=engine.cold_queries if engine is not None else 0,
        drift_fallbacks=engine.drift_fallbacks if engine is not None else 0,
        refreshes=engine.refreshes if engine is not None else 0,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )


@dataclass(frozen=True)
class ServingStats:
    """Aggregate query-serving counters collected at the end of a run.

    Attributes
    ----------
    warm_queries:
        Queries answered by the warm-start Lloyd descent alone.
    cold_queries:
        Queries that ran the full cold k-means++ path.
    drift_fallbacks:
        Warm attempts rejected by the cost-ratio guard.
    refreshes:
        Scheduled cold re-anchors after a full warm streak.
    cache_hits / cache_misses:
        Cumulative coreset-cache lookup counters of the algorithm's
        structure (0 for cache-less algorithms).
    """

    warm_queries: int = 0
    cold_queries: int = 0
    drift_fallbacks: int = 0
    refreshes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class RunResult:
    """Everything measured while replaying one stream against one algorithm.

    Attributes
    ----------
    algorithm:
        The registry name of the algorithm.
    timing:
        Update/query time breakdown (seconds).
    memory:
        Peak memory snapshot (points stored, converted to MB on demand).
    final_cost:
        k-means cost of the *last* query's centers over the whole stream.
    final_centers:
        Centers returned by the last query (shape ``(k, d)``).
    num_queries:
        Number of queries answered during the run.
    query_costs:
        Optional per-query costs (populated when ``track_query_costs`` is set).
    query_latencies:
        Wall-clock seconds of every individual query, in order — the raw
        series behind per-query latency percentiles.
    serving:
        Warm/cold/drift and cache hit/miss counters from the serving
        pipeline (zeros for algorithms that bypass it).
    checkpoints:
        Paths of every checkpoint written during the run (mid-run interval
        snapshots plus the optional final snapshot), in write order.
    checkpoint_seconds:
        Wall-clock seconds spent writing checkpoints (kept out of the
        update/query timing so snapshots never skew paper measurements).
    reshards:
        :class:`~repro.parallel.elastic.ReshardReport` for every live
        reshard the run performed (``reshard_at``), in stream order.
    """

    algorithm: str
    timing: TimingBreakdown
    memory: MemoryUsage
    final_cost: float
    final_centers: np.ndarray
    num_queries: int
    query_costs: list[float] = field(default_factory=list)
    query_latencies: list[float] = field(default_factory=list)
    serving: ServingStats = field(default_factory=ServingStats)
    checkpoints: list[Path] = field(default_factory=list)
    checkpoint_seconds: float = 0.0
    reshards: list = field(default_factory=list)


@dataclass
class StreamingExperiment:
    """Configuration of a single harness run.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm to run.
    config:
        Streaming configuration handed to the algorithm factory.
    schedule:
        Query schedule (defaults to one query every 100 points, the paper's
        default).
    nesting_depth / switch_threshold:
        Forwarded to :func:`make_algorithm`.
    algorithm_options:
        Extra per-algorithm option overrides (``{"window_buckets": 4}``,
        ``{"fuzziness": 1.5}``, ...) forwarded to the registry and validated
        against the algorithm's typed options dataclass.
    track_query_costs:
        When True, the k-means cost of every query answer is evaluated over
        the points seen so far (slow; used only by accuracy-focused tests).
    ingest_mode:
        ``"batch"`` (default) feeds the stream through ``insert_batch`` in
        maximal blocks between query events; ``"point"`` times one ``insert``
        call per point, reproducing the pre-vectorization measurement.
    chunk_size:
        Optional cap on batch length in batch mode (None = one batch per
        inter-query segment).
    shards / backend / routing:
        With ``shards > 1`` the run uses the parallel sharded engine on the
        chosen executor backend and routing policy (ct/cc/rcc only); the
        engine is closed when the run finishes.
    checkpoint_interval / checkpoint_dir:
        With both set, the run snapshots the live clusterer into
        ``checkpoint_dir/ckpt-<points>`` at least every
        ``checkpoint_interval`` ingested points (aligned to ingestion block
        boundaries).  Checkpoint time is recorded separately and never
        counted as update or query time.
    checkpoint_keep_last:
        With ``checkpoint_keep_last=N`` set alongside interval snapshots,
        older interval snapshots are pruned after each write so at most the
        newest ``N`` remain on disk (a corrupt-only tail is never pruned to
        zero good snapshots; see
        :func:`repro.checkpoint.prune_checkpoints`).  Pruned paths stay
        listed in :attr:`RunResult.checkpoints` for accounting.
    checkpoint_to:
        Optional path for one final snapshot taken after the stream ends
        (before the engine is closed).
    resume_from:
        Optional checkpoint to restore instead of building a fresh
        algorithm.  The checkpoint's structure-config fingerprint must match
        the configuration this experiment would build, otherwise
        :class:`~repro.checkpoint.CheckpointError` is raised.  By default
        the supplied ``points`` are treated as the *remaining* stream and
        ingested in full.
    resume_skip_ingested:
        With ``resume_from``, treat ``points`` as the stream *from the
        beginning* and skip the first ``points_seen`` rows the checkpoint
        already ingested (the CLI uses this: datasets are regenerated
        deterministically from the seed, so replaying from zero would
        double-ingest).
    stream_annotations:
        Optional stream-identity dict (dataset name, generator seed, ...)
        stored in every snapshot this run writes and *verified* on resume —
        the structure fingerprint covers the algorithm config, annotations
        cover the stream, so resuming against a different dataset or seed
        fails fast instead of silently splicing two streams.
    reshard_at:
        Optional ``{points: new_num_shards}`` schedule of live reshards:
        once ``points_seen`` reaches a threshold (aligned to ingestion
        block boundaries, exactly like checkpoints), the sharded engine is
        resharded to the mapped shard count.  Requires ``shards > 1``; the
        reports land in :attr:`RunResult.reshards`.
    """

    algorithm: str
    config: StreamingConfig
    schedule: QuerySchedule = field(default_factory=lambda: FixedIntervalSchedule(100))
    nesting_depth: int = 3
    switch_threshold: float = 1.2
    algorithm_options: dict = field(default_factory=dict)
    track_query_costs: bool = False
    ingest_mode: str = "batch"
    chunk_size: int | None = None
    shards: int = 1
    backend: str = "serial"
    routing: str = "round_robin"
    checkpoint_interval: int | None = None
    checkpoint_dir: str | Path | None = None
    checkpoint_keep_last: int | None = None
    checkpoint_to: str | Path | None = None
    resume_from: str | Path | None = None
    resume_skip_ingested: bool = False
    stream_annotations: dict | None = None
    reshard_at: dict[int, int] | None = None


def _resume_algorithm(experiment: StreamingExperiment) -> StreamingClusterer:
    """Restore the experiment's algorithm from ``experiment.resume_from``.

    The checkpoint's fingerprint is checked against the configuration this
    experiment would otherwise build, so a resume with drifted CLI flags or
    config fails fast with a :class:`~repro.checkpoint.CheckpointError`
    instead of silently continuing a different experiment.
    """
    from ..checkpoint import fingerprint_for, load_checkpoint

    # Build a throwaway instance only to learn the expected fingerprint (for
    # sharded runs, on the serial backend: the backend is not fingerprinted).
    probe = make_algorithm(
        experiment.algorithm,
        experiment.config,
        nesting_depth=experiment.nesting_depth,
        switch_threshold=experiment.switch_threshold,
        shards=experiment.shards,
        backend="serial",
        routing=experiment.routing,
        **experiment.algorithm_options,
    )
    try:
        expected = fingerprint_for(probe)
    finally:
        closer = getattr(probe, "close", None)
        if closer is not None:
            closer()
    overrides = {"backend": experiment.backend} if experiment.shards > 1 else {}
    return load_checkpoint(
        experiment.resume_from,
        expected_fingerprint=expected,
        expected_annotations=experiment.stream_annotations,
        **overrides,
    )


def run_experiment(experiment: StreamingExperiment, points: np.ndarray) -> RunResult:
    """Replay ``points`` through the configured algorithm and schedule.

    The stream is converted once up front to the configuration's storage
    dtype (``config.dtype``), so with ``dtype="float32"`` every block the
    algorithm ingests — and every slab the sharded engine ships — is single
    precision end to end.
    """
    data = np.asarray(points, dtype=experiment.config.np_dtype)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if experiment.ingest_mode not in ("batch", "point"):
        raise ValueError(
            f"ingest_mode must be 'batch' or 'point', got {experiment.ingest_mode!r}"
        )
    if (experiment.checkpoint_interval is not None) != (
        experiment.checkpoint_dir is not None
    ):
        raise ValueError(
            "checkpoint_interval and checkpoint_dir must be set together"
        )
    if experiment.checkpoint_interval is not None and experiment.checkpoint_interval <= 0:
        raise ValueError("checkpoint_interval must be positive")
    if experiment.checkpoint_keep_last is not None:
        if experiment.checkpoint_dir is None:
            raise ValueError("checkpoint_keep_last requires checkpoint_dir")
        if experiment.checkpoint_keep_last < 1:
            raise ValueError("checkpoint_keep_last must be >= 1")
    if experiment.reshard_at:
        if experiment.shards <= 1:
            raise ValueError("reshard_at requires a sharded run (shards > 1)")
        for at, target in experiment.reshard_at.items():
            if int(at) <= 0 or int(target) <= 0:
                raise ValueError(
                    f"reshard_at entries must be positive, got {at}: {target}"
                )

    if experiment.resume_from is not None:
        algorithm = _resume_algorithm(experiment)
        if experiment.resume_skip_ingested:
            already = min(algorithm.points_seen, data.shape[0])
            data = data[already:]
            if data.shape[0] == 0:
                from ..checkpoint import CheckpointError

                closer = getattr(algorithm, "close", None)
                if closer is not None:
                    closer()
                raise CheckpointError(
                    "checkpoint already covers the whole stream "
                    f"({algorithm.points_seen} points ingested); supply more points"
                )
    else:
        algorithm = make_algorithm(
            experiment.algorithm,
            experiment.config,
            nesting_depth=experiment.nesting_depth,
            switch_threshold=experiment.switch_threshold,
            shards=experiment.shards,
            backend=experiment.backend,
            routing=experiment.routing,
            **experiment.algorithm_options,
        )
    try:
        return _replay(experiment, algorithm, data)
    finally:
        closer = getattr(algorithm, "close", None)
        if closer is not None:
            closer()


def _replay(
    experiment: StreamingExperiment,
    algorithm: StreamingClusterer,
    data: np.ndarray,
) -> RunResult:
    """Drive one already-constructed algorithm through the stream and schedule."""
    query_set = experiment.schedule.query_set(data.shape[0])

    timing = TimingBreakdown()
    peak_points = 0
    last_centers: np.ndarray | None = None
    query_costs: list[float] = []
    query_latencies: list[float] = []
    num_queries = 0
    checkpoints: list[Path] = []
    checkpoint_seconds = 0.0
    next_checkpoint = (
        algorithm.points_seen + experiment.checkpoint_interval
        if experiment.checkpoint_interval is not None
        else None
    )

    def write_checkpoint(target: Path) -> None:
        nonlocal checkpoint_seconds
        # Parallel engines quiesce inside snapshot(); drain the queued insert
        # backlog under the update clock first (exactly as run_query does) so
        # checkpoint_seconds measures only the snapshot itself.
        drain_updates()
        start = time.perf_counter()
        checkpoints.append(
            algorithm.snapshot(target, annotations=experiment.stream_annotations)
        )
        checkpoint_seconds += time.perf_counter() - start

    def maybe_checkpoint() -> None:
        nonlocal next_checkpoint
        if next_checkpoint is None or algorithm.points_seen < next_checkpoint:
            return
        assert experiment.checkpoint_interval is not None
        assert experiment.checkpoint_dir is not None
        write_checkpoint(
            Path(experiment.checkpoint_dir) / f"ckpt-{algorithm.points_seen:010d}"
        )
        if experiment.checkpoint_keep_last is not None:
            from ..checkpoint import prune_checkpoints

            prune_checkpoints(
                Path(experiment.checkpoint_dir), experiment.checkpoint_keep_last
            )
        while next_checkpoint <= algorithm.points_seen:
            next_checkpoint += experiment.checkpoint_interval

    # Live reshards fire at stream thresholds, aligned (like checkpoints) to
    # ingestion block boundaries.  Reshard time is the engine's quiesce pause,
    # reported per event; it is never billed as update or query time.
    pending_reshards = sorted(
        (int(at), int(target)) for at, target in (experiment.reshard_at or {}).items()
    )
    reshard_reports: list = []

    def maybe_reshard() -> None:
        while pending_reshards and algorithm.points_seen >= pending_reshards[0][0]:
            _, target = pending_reshards.pop(0)
            resharder = getattr(algorithm, "reshard", None)
            if resharder is None:
                raise ValueError(
                    f"algorithm {experiment.algorithm!r} does not support live resharding"
                )
            drain_updates()
            reshard_reports.append(resharder(target))
    # Parallel engines apply inserts asynchronously; drain the queued work
    # under the update clock before timing a query, so backlog is billed as
    # update time instead of inflating query latency.
    flush = getattr(algorithm, "flush", None)

    def drain_updates() -> None:
        if flush is not None:
            start = time.perf_counter()
            flush()
            timing.add_update(time.perf_counter() - start, 0)

    def run_query(position: int) -> None:
        nonlocal last_centers, num_queries, peak_points
        drain_updates()
        start = time.perf_counter()
        result = algorithm.query()
        elapsed = time.perf_counter() - start
        timing.add_query(elapsed)
        query_latencies.append(elapsed)
        last_centers = result.centers
        num_queries += 1
        peak_points = max(peak_points, algorithm.stored_points())
        if experiment.track_query_costs:
            query_costs.append(kmeans_cost(data[:position], result.centers))

    if experiment.ingest_mode == "batch":
        # Preserve the storage dtype: the default PointStream would upcast a
        # float32 stream back to float64 and force a per-block re-cast inside
        # the timed update loop.
        stream = PointStream(data, dtype=data.dtype)
        for block in stream.iter_segments(query_set, chunk_size=experiment.chunk_size):
            start = time.perf_counter()
            algorithm.insert_batch(block)
            timing.add_batch_update(time.perf_counter() - start, block.shape[0])
            maybe_reshard()
            maybe_checkpoint()
            if stream.position in query_set:
                run_query(stream.position)
    else:
        for index in range(data.shape[0]):
            start = time.perf_counter()
            algorithm.insert(data[index])
            timing.add_update(time.perf_counter() - start)
            maybe_reshard()
            maybe_checkpoint()
            if index + 1 in query_set:
                run_query(index + 1)

    if last_centers is None:
        # No scheduled query fired (short stream): issue one final query so
        # that every run produces centers and a cost.
        drain_updates()
        start = time.perf_counter()
        result = algorithm.query()
        elapsed = time.perf_counter() - start
        timing.add_query(elapsed)
        query_latencies.append(elapsed)
        last_centers = result.centers
        num_queries += 1

    peak_points = max(peak_points, algorithm.stored_points())
    final_cost = kmeans_cost(data, last_centers)

    if experiment.checkpoint_to is not None:
        write_checkpoint(Path(experiment.checkpoint_to))

    return RunResult(
        algorithm=experiment.algorithm,
        timing=timing,
        memory=MemoryUsage(points_stored=peak_points, dimension=data.shape[1]),
        final_cost=final_cost,
        final_centers=last_centers,
        num_queries=num_queries,
        query_costs=query_costs,
        query_latencies=query_latencies,
        serving=collect_serving_stats(algorithm),
        checkpoints=checkpoints,
        checkpoint_seconds=checkpoint_seconds,
        reshards=reshard_reports,
    )
