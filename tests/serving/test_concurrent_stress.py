"""Concurrent-reader stress: monotonic versions, replayable answers, no leaks.

Real threads this time: one writer ingesting and publishing continuously
while at least eight readers serve closed-loop.  The linearizability check
is the same replay as the hypothesis battery — every answer a reader
produced under contention must be bitwise reproducible single-threaded from
the retained snapshot it claims it was computed from.

Leak accounting: a retired snapshot's only legitimate owners are readers
mid-query.  Once readers finish and drop their references, ``gc.collect()``
must bring ``SnapshotPublisher.live_retired()`` to zero.  The long version
runs under ``REPRO_SOAK=1``.
"""

from __future__ import annotations

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.core.base import StreamingConfig

from serving_helpers import STRESS_READERS, build_plane, make_stream

STRESS_CONFIG = StreamingConfig(
    k=3, coreset_size=30, merge_degree=2, n_init=1, lloyd_iterations=3, seed=17
)

POINTS = make_stream(num_points=6000, dimension=4, seed=23)


def reader_worker(plane, index, stop_event, history, errors):
    """Closed-loop reader: deterministic op sequence, recorded for replay."""
    try:
        reader = plane.reader(seed=500 + index)
        step = 0
        while not stop_event.is_set() or step == 0:
            if plane.version == 0:
                time.sleep(0.001)
                continue
            if step % 4 == 3:
                ks = (2, 3)
                results = reader.query_multi_k(ks)
                history.append(
                    (ks, True, results[ks[0]].version, [results[k] for k in ks])
                )
            else:
                k = (2, 3, 4)[step % 3]
                result = reader.query(k)
                history.append(((k,), False, result.version, [result]))
            step += 1
    except Exception as exc:  # noqa: BLE001 - reported to the main thread
        errors.append((index, exc))


def run_stress(kind: str, batches: int, retain: bool):
    """Drive ``batches`` publishes under STRESS_READERS concurrent readers."""
    plane = build_plane(STRESS_CONFIG, kind)
    retained: dict = {}
    histories = [[] for _ in range(STRESS_READERS)]
    errors: list = []
    try:
        if retain:
            plane.publisher.subscribe(
                lambda snapshot: retained.__setitem__(snapshot.version, snapshot)
            )
        engine_factory = plane.clusterer.query_engine.fork
        stop_event = threading.Event()
        threads = [
            threading.Thread(
                target=reader_worker,
                args=(plane, index, stop_event, histories[index], errors),
                daemon=True,
            )
            for index in range(STRESS_READERS)
        ]
        for thread in threads:
            thread.start()
        cursor = 0
        for _ in range(batches):
            plane.ingest(POINTS[cursor : cursor + 120])
            cursor = (cursor + 120) % (POINTS.shape[0] - 200)
        stop_event.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        plane.close()
    assert not errors, f"reader threads raised: {errors}"
    return plane.publisher, retained, histories, engine_factory


def replay(retained, histories, engine_factory):
    for index, history in enumerate(histories):
        versions = [entry[2] for entry in history]
        assert versions == sorted(versions), f"reader {index} versions not monotonic"
        assert set(versions) <= set(retained)
        engine = engine_factory()
        rng = np.random.default_rng(500 + index)
        for ks, multi, version, served in history:
            coreset = retained[version].coreset
            if multi:
                solutions = engine.solve_multi(coreset, ks, rng)
                replayed = [solutions[k] for k in ks]
            else:
                replayed = [engine.solve(coreset, ks[0], rng)]
            for result, solution in zip(served, replayed):
                assert np.array_equal(result.centers, solution.centers)
                assert result.cost == solution.cost


@pytest.mark.parametrize("kind", ["driver", "sharded-process"])
def test_concurrent_readers_serve_replayable_snapshots(kind):
    publisher, retained, histories, engine_factory = run_stress(
        kind, batches=25, retain=True
    )
    assert publisher.version == 25
    served = sum(len(history) for history in histories)
    assert served > 0
    replay(retained, histories, engine_factory)


def test_no_retired_snapshot_survives_the_readers():
    publisher, _, histories, _ = run_stress("driver", batches=20, retain=False)
    del histories  # served results do not hold snapshots, but be thorough
    gc.collect()
    assert publisher.live_retired() == 0
    assert publisher.latest is not None  # only the live snapshot remains


@pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak run: set REPRO_SOAK=1 (several minutes of sustained load)",
)
def test_soak_sustained_load_leaks_nothing():
    """Minutes-long churn: versions keep flowing, retired snapshots die."""
    seconds = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))
    plane = build_plane(STRESS_CONFIG, "driver")
    errors: list = []
    histories = [[] for _ in range(STRESS_READERS)]
    try:
        stop_event = threading.Event()
        threads = [
            threading.Thread(
                target=reader_worker,
                args=(plane, index, stop_event, histories[index], errors),
                daemon=True,
            )
            for index in range(STRESS_READERS)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + seconds
        cursor = 0
        checkpoints = 0
        while time.monotonic() < deadline:
            plane.ingest(POINTS[cursor : cursor + 120])
            cursor = (cursor + 120) % (POINTS.shape[0] - 200)
            checkpoints += 1
            if checkpoints % 50 == 0:
                # Mid-soak accounting: anything beyond what the readers are
                # holding right now must already be collectable.
                gc.collect()
                assert plane.publisher.live_retired() <= STRESS_READERS
        stop_event.set()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        plane.close()
    assert not errors, f"reader threads raised: {errors}"
    served = sum(len(history) for history in histories)
    assert served > STRESS_READERS  # every reader made progress
    for history in histories:
        versions = [entry[2] for entry in history]
        assert versions == sorted(versions)
    del histories
    gc.collect()
    assert plane.publisher.live_retired() == 0
