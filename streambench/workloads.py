"""The benchmark's workloads, each driven through the public ``repro`` API.

Every workload runs CC on the covtype-like stream (d=54) with ``k = 20`` and
``m = 20 k``.  A workload sets up ``SETUPS`` times and keeps the last set-up
for the measured phase, so that ``setup_s`` is a median.  The measured phase
runs whole rounds of the same operations until ``seconds`` have passed and
the stream has passed ``STORED_PREFIX`` points, so that ``stored_points``
(the peak over that prefix) is taken at the same stream position in every
run.  Each workload returns a :class:`Outcome`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    K,
    QualityCheck,
    Stream,
    Windows,
    make_pool,
    median,
    percentile,
    valid_centers,
    wait_until,
)

SETUPS = 5
STORED_PREFIX = 200_000

#: paper-q100: the paper's default query model, a query every 100 points.
Q100_INTERVAL = 100
Q100_WARMUP = 10_000

#: bulk-ingest / bulk-sharded: large batches, a query every 10k points.
BULK_BATCH = 1_000
BULK_BATCHES_PER_QUERY = 10
BULK_WARMUP = 20_000
SHARDS = 2

#: serve-live: a checkpoint at SERVE_PREFIX points plus a SERVE_TAIL-point
#: journal is resumed at boot; then WRITE_RATE batches of WRITE_BATCH points
#: a second are written while QUERY_RATE queries a second arrive.  The
#: rates keep the server's core about a fifth busy: at twice them, queueing
#: turned the host's scheduling noise into swings of up to 2x in the tails.
SERVE_PREFIX = 60_000
SERVE_TAIL = 20_000
WRITE_BATCH = 400
WRITE_RATE = 25.0
QUERY_RATE = 40.0
LOADGEN = Path(__file__).resolve().parent / "loadgen.py"


@dataclass
class Outcome:
    """What one measured run produced.

    ``query_tail`` and ``write_tail`` are the percentiles behind the tail
    metrics: the highest of p99 and p90 that keeps at least ten samples
    beyond it in every window at a 20-second run.
    """

    setup_s: list[float]
    windows: Windows
    stored_points: int
    query_tail: float
    write_tail: float
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    #: Per-layer values the program reports itself (not from spans).
    layer_extras: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        w = self.windows
        return {
            "setup_s": median(self.setup_s),
            "stream_pts_s": w.rate(),
            "query_p50_us": w.latency(w.query_us, 50),
            "query_tail_us": w.latency(w.query_us, self.query_tail),
            "write_p50_us": w.latency(w.write_us, 50),
            "write_tail_us": w.latency(w.write_us, self.write_tail),
            "stored_points": float(self.stored_points),
        }


class Ops:
    """Counts operations; a call that raises is a failed operation."""

    def __init__(self, outcome_errors: list[str]) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self._errors = outcome_errors

    def call(self, kind: str, fn, *args):
        self.attempted[kind] += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            self.failed[kind] += 1
            if len(self._errors) < 5:
                self._errors.append(f"{kind} failed: {type(exc).__name__}: {exc}")
            return None


def _config(seed: int):
    from repro import StreamingConfig

    return StreamingConfig(k=K, seed=seed)


def _check_query(result, problems: list[str]) -> None:
    if result is None:
        return
    if not valid_centers(result.centers, K) or not result.stats.cost > 0:
        if len(problems) < 5:
            problems.append("a query returned malformed centers or a non-positive cost")


# -- paper-q100 ------------------------------------------------------------------


def paper_q100(seed: int, seconds: float, tracer, scratch: Path) -> Outcome:
    from repro import CachedCoresetTreeClusterer

    pool = make_pool(seed)
    config = _config(seed)
    setups = []
    for _ in range(SETUPS):
        stream = Stream(pool)
        started = time.perf_counter()
        clusterer = CachedCoresetTreeClusterer(config)
        while stream.sent < Q100_WARMUP:
            clusterer.insert_batch(stream.take(Q100_INTERVAL))
            clusterer.query()
        setups.append(time.perf_counter() - started)

    problems: list[str] = []
    ops = Ops(problems)
    tree = clusterer.cached_tree.tree
    merges_before = tree.merge_count
    sent_before = stream.sent
    stored = 0
    result = None
    if tracer is not None:
        tracer.mark("measure")
    windows = Windows(seconds)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or stream.sent < STORED_PREFIX:
        batch = stream.take(Q100_INTERVAL)
        t0 = time.perf_counter()
        ops.call("writes", clusterer.insert_batch, batch)
        t1 = time.perf_counter()
        result = ops.call("queries", clusterer.query)
        t2 = time.perf_counter()
        windows.add_write(t1 - t0)
        windows.add_query(t2 - t1)
        windows.add_work(Q100_INTERVAL, t2 - t0)
        _check_query(result, problems)
        if stream.sent <= STORED_PREFIX:
            stored = max(stored, clusterer.stored_points())

    ops.attempted["merges"] = tree.merge_count - merges_before
    quality = QualityCheck(seed, pool)
    if result is None or not quality.ok(result.centers):
        problems.append(f"final centers cost {quality.worst_ratio:.3f}x the reference")
    if clusterer.points_seen != stream.sent:
        problems.append(f"points_seen {clusterer.points_seen} != {stream.sent} sent")
    points = stream.sent - sent_before
    return Outcome(
        setup_s=setups,
        windows=windows,
        stored_points=stored,
        query_tail=99,
        write_tail=99,
        attempted=ops.attempted,
        failed=ops.failed,
        problems=problems,
        detail={
            "points": points,
            "cost_vs_reference": quality.worst_ratio,
            "cold_queries": clusterer.query_engine.cold_queries,
            "warm_queries": clusterer.query_engine.warm_queries,
        },
    )


# -- bulk-ingest and bulk-sharded ----------------------------------------------------


def _bulk(seed, seconds, tracer, make, sharded: bool) -> Outcome:
    pool = make_pool(seed)
    setups = []
    engine = None
    try:
        for _ in range(SETUPS):
            if engine is not None and sharded:
                engine.close()
            engine = None
            stream = Stream(pool)
            started = time.perf_counter()
            engine = make()
            while stream.sent < BULK_WARMUP:
                engine.insert_batch(stream.take(BULK_BATCH))
            engine.query()
            setups.append(time.perf_counter() - started)

        problems: list[str] = []
        ops = Ops(problems)
        merges_before = _merges(engine, sharded)
        sent_before = stream.sent
        stored = 0
        result = None
        if tracer is not None:
            tracer.mark("measure")
        windows = Windows(seconds)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or stream.sent < STORED_PREFIX:
            busy = 0.0
            for _ in range(BULK_BATCHES_PER_QUERY):
                batch = stream.take(BULK_BATCH)
                t0 = time.perf_counter()
                ops.call("writes", engine.insert_batch, batch)
                elapsed = time.perf_counter() - t0
                windows.add_write(elapsed)
                busy += elapsed
            t0 = time.perf_counter()
            if sharded:
                # Wait for the shards to apply every block, so that the
                # query times the collection and solve alone.
                engine.flush()
            t1 = time.perf_counter()
            result = ops.call("queries", engine.query)
            t2 = time.perf_counter()
            windows.add_query(t2 - t1)
            windows.add_work(BULK_BATCH * BULK_BATCHES_PER_QUERY, busy + t2 - t0)
            _check_query(result, problems)
            if stream.sent <= STORED_PREFIX:
                stored = max(stored, engine.stored_points())
        ops.attempted["merges"] = _merges(engine, sharded) - merges_before
        quality = QualityCheck(seed, pool)
        if result is None or not quality.ok(result.centers):
            problems.append(f"final centers cost {quality.worst_ratio:.3f}x the reference")
        if engine.points_seen != stream.sent:
            problems.append(f"points_seen {engine.points_seen} != {stream.sent} sent")
        layer_extras = {}
        if sharded:
            loads = engine.shard_loads()
            if sum(loads) != stream.sent:
                problems.append(f"shard_loads sum to {sum(loads)}, not {stream.sent}")
            layer_extras["parallel.shard_skew"] = max(loads) / (sum(loads) / len(loads))
    finally:
        # Shard workers are child processes: stop them on every way out.
        if sharded and engine is not None:
            engine.close()
    points = stream.sent - sent_before
    return Outcome(
        setup_s=setups,
        windows=windows,
        stored_points=stored,
        query_tail=90,
        write_tail=99,
        attempted=ops.attempted,
        failed=ops.failed,
        problems=problems,
        detail={"points": points, "cost_vs_reference": quality.worst_ratio},
        layer_extras=layer_extras,
    )


def _merges(engine, sharded: bool) -> int:
    """Coreset merges done so far.

    Shard trees live in worker processes, out of reach of the API, so for
    the sharded engine the count follows from the shard loads: an r-way
    coreset tree that has taken B base buckets has merged (B - s_r(B)) / (r - 1)
    times, s_r(B) being the digit sum of B in base r.
    """
    if not sharded:
        return engine.cached_tree.tree.merge_count
    r = engine.config.merge_degree
    total = 0
    for load in engine.shard_loads():
        buckets = load // engine.config.bucket_size
        digits, rest = 0, buckets
        while rest:
            digits += rest % r
            rest //= r
        total += (buckets - digits) // (r - 1)
    return total


def bulk_ingest(seed: int, seconds: float, tracer, scratch: Path) -> Outcome:
    from repro import CachedCoresetTreeClusterer

    config = _config(seed)
    return _bulk(seed, seconds, tracer, lambda: CachedCoresetTreeClusterer(config), False)


def bulk_sharded(seed: int, seconds: float, tracer, scratch: Path) -> Outcome:
    from repro import ShardedEngine

    config = _config(seed)
    return _bulk(
        seed,
        seconds,
        tracer,
        lambda: ShardedEngine(config, num_shards=SHARDS, backend="process"),
        True,
    )


# -- serve-live ---------------------------------------------------------------------


def _prepare_durable_state(config, stream: Stream, root: Path) -> None:
    """A checkpoint at SERVE_PREFIX points plus a journal of SERVE_TAIL more."""
    from repro import CachedCoresetTreeClusterer, ServingPlane
    from repro.checkpoint.store import CheckpointStore
    from repro.resilience.wal import WriteAheadLog

    with ServingPlane(CachedCoresetTreeClusterer(config)) as plane:
        while stream.sent < SERVE_PREFIX:
            plane.ingest(stream.take(WRITE_BATCH))
        plane.snapshot(CheckpointStore(root / "ckpt").path_for(stream.sent))
    with WriteAheadLog(root / "wal", fsync_every=0) as wal:
        while stream.sent < SERVE_PREFIX + SERVE_TAIL:
            position = stream.sent
            wal.append(stream.take(WRITE_BATCH), position)


class _LiveSystem:
    """One booted serving stack: supervisor-fed plane behind a TCP server."""

    def __init__(self, config, root: Path) -> None:
        from repro import CachedCoresetTreeClusterer, ServingPlane
        from repro.checkpoint.store import CheckpointStore
        from repro.resilience.supervisor import IngestSupervisor
        from repro.serving.server import ServerThread

        self.plane = ServingPlane(CachedCoresetTreeClusterer(config))
        self.supervisor = IngestSupervisor(
            self.plane,
            CheckpointStore(root / "ckpt"),
            root / "wal",
            clusterer_factory=lambda: CachedCoresetTreeClusterer(config),
            fsync_every=0,
        )
        self.event = self.supervisor.resume()
        self.server = ServerThread(
            self.plane, health_source=lambda: self.supervisor.health().value
        )

    def close(self) -> None:
        self.server.stop()
        self.supervisor.close(final_checkpoint=False)
        self.plane.close()


def serve_live(seed: int, seconds: float, tracer, scratch: Path) -> Outcome:
    from repro.checkpoint.store import checkpoint_position

    # The load generator gets a core of its own; the server process (every
    # thread it starts inherits this) gets the others.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
    pool = make_pool(seed)
    config = _config(seed)
    stream = Stream(pool)
    prepared = scratch / "prepared"
    _prepare_durable_state(config, stream, prepared)
    problems: list[str] = []

    setups = []
    system = None
    for boot in range(SETUPS):
        if system is not None:
            system.close()
        root = scratch / f"boot{boot}"
        shutil.copytree(prepared, root)
        started = time.perf_counter()
        system = _LiveSystem(config, root)
        setups.append(time.perf_counter() - started)

    event = system.event
    resumed = system.plane.points_ingested
    restored_at = checkpoint_position(event.restored_from)
    if resumed != restored_at + event.replayed_points or resumed != stream.sent:
        problems.append(
            f"resumed at {resumed}, checkpoint {restored_at} + replay "
            f"{event.replayed_points}, journal ends at {stream.sent}"
        )

    ops = Ops(problems)
    tree = system.plane.clusterer.cached_tree.tree
    merges_before = tree.merge_count
    loadgen = subprocess.Popen(
        [
            sys.executable, str(LOADGEN),
            "--port", str(system.server.port),
            "--rate", str(QUERY_RATE),
            "--seconds", str(seconds),
            "--connections", str(len(cpus)),
            "--cpu", str(cpus[-1]),
            "--seed", str(seed),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        if loadgen.stdout.readline().strip() != "ready":
            raise RuntimeError("the load generator did not start")
        start_wall = time.time() + 0.2
        start = time.perf_counter() + (start_wall - time.time())
        loadgen.stdin.write(f"{start_wall!r}\n")
        loadgen.stdin.flush()
        if tracer is not None:
            tracer.mark("measure")

        windows = Windows(seconds, start)
        stored = 0
        for i in range(int(round(WRITE_RATE * seconds))):
            due = start + i / WRITE_RATE
            wait_until(due)
            batch = stream.take(WRITE_BATCH)
            cpu0 = time.thread_time()
            ops.call("writes", system.supervisor.ingest, batch)
            done = time.perf_counter()
            windows.add_write(done - due, at=due)
            # Write capacity: the writer's own CPU time, which leaves out
            # the time it waits for the interpreter lock held by readers.
            windows.add_work(WRITE_BATCH, time.thread_time() - cpu0, at=due)
            stored = max(stored, system.plane.clusterer.stored_points())
        acknowledged = (ops.attempted["writes"] - ops.failed["writes"]) * WRITE_BATCH
        out, _ = loadgen.communicate(timeout=seconds + 60)
    finally:
        if loadgen.poll() is None:
            loadgen.kill()
        loadgen.wait()
        system.close()
    report = json.loads(out.strip().splitlines()[-1])
    for due_offset, latency_us in report["latencies"]:
        windows.add_query(latency_us / 1e6, at=start + due_offset)
    stats = system.server.server.stats

    ops.attempted["merges"] = tree.merge_count - merges_before
    # Requests are the queries plus the pings that time the wire.
    ops.attempted["requests"] = report["attempted"]
    ops.failed["requests"] = report["failed"]
    problems.extend(report["invalid"][:5])
    quality = QualityCheck(seed, pool, ks=(10, 20, 30))
    for sample in report["samples"]:
        centers = np.asarray(sample["centers"], dtype=np.float64)
        if not quality.ok(centers):
            problems.append(f"served k={sample['k']} centers cost {quality.worst_ratio:.3f}x")
            break
    expected = SERVE_PREFIX + SERVE_TAIL + acknowledged
    if system.plane.points_ingested != expected:
        problems.append(
            f"plane holds {system.plane.points_ingested} points, writer acknowledged "
            f"{expected}"
        )
    served = max(stats.served, 1)
    return Outcome(
        setup_s=setups,
        windows=windows,
        stored_points=stored,
        query_tail=90,
        write_tail=90,
        attempted=ops.attempted,
        failed=ops.failed,
        problems=problems,
        detail={
            "failure_codes": report["codes"],
            "cost_vs_reference": quality.worst_ratio,
            "quality": quality.summary(),
            "generator_late_p99_us": percentile(report["lateness_us"] or [0.0], 99),
            "generator_late_max_us": max(report["lateness_us"] or [0.0]),
            "replayed_points": event.replayed_points,
        },
        layer_extras={
            "serving.batched_ratio": stats.batched / served,
            "serving.wire_us": percentile(report["ping_rtt_us"] or [0.0], 50),
        },
    )


WORKLOADS = {
    "paper-q100": paper_q100,
    "bulk-ingest": bulk_ingest,
    "bulk-sharded": bulk_sharded,
    "serve-live": serve_live,
}
