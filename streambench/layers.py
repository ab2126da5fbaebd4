"""Per-layer metrics, derived from the spans of a traced run.

Layers are the modules under ``src/repro/``.  Steady-state metrics use the
spans that began after the measured phase started; ``checkpoint.restore_s``
and ``resilience.replay_pts_s`` describe set-up and use the median over the
set-up repetitions.  A layer that a workload does not reach reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.ingest_self_s", "s"),
    ("core.assembly_us", "us"),
    ("core.cache_lookups", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("coreset.merges", "count"),
    ("coreset.merge_us", "us"),
    ("coreset.merge_s", "s"),
    ("kmeans.seeding_calls", "count"),
    ("kmeans.seeding_s", "s"),
    ("kmeans.lloyd_calls", "count"),
    ("kmeans.lloyd_s", "s"),
    ("queries.solve_us", "us"),
    ("queries.cold_solve_us", "us"),
    ("queries.warm_ratio", "ratio"),
    ("queries.coreset_points", "points"),
    ("serving.publish_us", "us"),
    ("serving.reader_solve_us", "us"),
    ("serving.encode_us", "us"),
    ("serving.queue_wait_us", "us"),
    ("serving.wire_us", "us"),
    ("serving.batched_ratio", "ratio"),
    ("parallel.submit_s", "s"),
    ("parallel.flush_wait_s", "s"),
    ("parallel.shard_skew", "ratio"),
    ("parallel.bytes_shipped", "bytes"),
    ("resilience.wal_append_us", "us"),
    ("resilience.wal_bytes", "bytes"),
    ("resilience.replay_pts_s", "pts/s"),
    ("checkpoint.restore_s", "s"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, extras: dict) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, from ``tracer``'s spans and counts."""
    begin = tracer.marks.get("measure", float("-inf"))
    measured = [span for span in tracer.spans if span.start >= begin]
    setup = [span for span in tracer.spans if span.start < begin]
    counts = tracer.counts - tracer.counts_at.get("measure", Counter())

    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for span in measured:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def mean_us(name: str) -> float:
        return _ratio(total(name), len(by_name[name])) * 1e6

    solves = by_name["queries.solve"]
    solutions = sum(span.attrs["solutions"] for span in solves)
    cold = [span for span in solves if span.attrs["warm"] < span.attrs["solutions"]]

    restores = {span.parent: span.duration for span in setup if span.name == "checkpoint.restore"}
    replay_rates = [
        span.attrs["replayed_points"] / (span.duration - restores.get(span.id, 0.0))
        for span in setup
        if span.name == "resilience.resume" and span.attrs
    ]
    restore_times = list(restores.values())

    values = {
        "core.ingest_self_s": sum(
            span.duration - child_time[span.id] for span in by_name["core.insert_batch"]
        ),
        "core.assembly_us": mean_us("core.assembly"),
        "core.cache_lookups": counts["core.cache_lookups"],
        "core.cache_hit_ratio": _ratio(counts["core.cache_hits"], counts["core.cache_lookups"]),
        "coreset.merges": len(by_name["coreset.merge"]),
        "coreset.merge_us": mean_us("coreset.merge"),
        "coreset.merge_s": total("coreset.merge"),
        "kmeans.seeding_calls": len(by_name["kmeans.seeding"]),
        "kmeans.seeding_s": total("kmeans.seeding"),
        "kmeans.lloyd_calls": len(by_name["kmeans.lloyd"]),
        "kmeans.lloyd_s": total("kmeans.lloyd"),
        "queries.solve_us": mean_us("queries.solve"),
        "queries.cold_solve_us": _ratio(sum(span.duration for span in cold), len(cold)) * 1e6,
        "queries.warm_ratio": _ratio(sum(span.attrs["warm"] for span in solves), solutions),
        "queries.coreset_points": _ratio(
            sum(span.attrs["coreset_points"] for span in solves), len(solves)
        ),
        "serving.publish_us": _ratio(
            total("serving.collect") + total("serving.publish"), len(by_name["serving.publish"])
        ) * 1e6,
        "serving.reader_solve_us": mean_us("serving.reader_solve"),
        "serving.encode_us": _ratio(
            total("serving.format") + total("serving.json"), len(by_name["serving.format"])
        ) * 1e6,
        "serving.queue_wait_us": mean_us("serving.queue_wait"),
        "serving.wire_us": extras.get("serving.wire_us", 0.0),
        "serving.batched_ratio": extras.get("serving.batched_ratio", 0.0),
        "parallel.submit_s": total("parallel.submit"),
        "parallel.flush_wait_s": total("parallel.flush"),
        "parallel.shard_skew": extras.get("parallel.shard_skew", 0.0),
        "parallel.bytes_shipped": counts["parallel.bytes_shipped"],
        "resilience.wal_append_us": mean_us("resilience.wal_append"),
        "resilience.wal_bytes": sum(span.attrs["bytes"] for span in by_name["resilience.wal_append"]),
        "resilience.replay_pts_s": float(np.median(replay_rates)) if replay_rates else 0.0,
        "checkpoint.restore_s": float(np.median(restore_times)) if restore_times else 0.0,
    }
    return {name: float(values[name]) for name, _ in PER_LAYER}
