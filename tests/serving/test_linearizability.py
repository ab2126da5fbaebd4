"""Linearizability of snapshot serving, checked by deterministic replay.

Property: every served result is *exactly* the result of a single-threaded
query against some published snapshot version, and each reader observes
monotonically non-decreasing versions.  The battery drives randomized
interleavings of ingest/publish/query operations (hypothesis generates the
schedules), retains every published snapshot via the publisher's subscribe
hook, and then replays each reader's recorded history on a fresh,
identically-seeded engine against the retained snapshots — demanding
bitwise-equal centers and costs.

Runs against the plain driver and against the sharded engine on both the
serial and the process backend (100 examples each).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import StreamingConfig

from serving_helpers import PLANE_KINDS, build_plane, make_stream

CONFIG = StreamingConfig(
    k=3, coreset_size=24, merge_degree=2, n_init=1, lloyd_iterations=4, seed=5
)

#: Deterministic point pool every interleaving draws its batches from.
POOL = make_stream(num_points=1600, dimension=3, seed=13)

NUM_READERS = 2

#: One schedule step: ingest a batch, a single-k query, or a k-sweep.
OPS = st.one_of(
    st.tuples(st.just("ingest"), st.integers(min_value=1, max_value=3)),
    st.tuples(
        st.just("query"),
        st.integers(min_value=0, max_value=NUM_READERS - 1),
        st.integers(min_value=2, max_value=4),
    ),
    st.tuples(st.just("multi"), st.integers(min_value=0, max_value=NUM_READERS - 1)),
)

SCHEDULES = st.lists(OPS, min_size=3, max_size=10)


def run_interleaving(kind: str, schedule: list[tuple]):
    """Execute one schedule, retaining every snapshot and every served answer."""
    plane = build_plane(CONFIG, kind)
    retained: dict = {}
    histories: list[list] = [[] for _ in range(NUM_READERS)]
    try:
        plane.publisher.subscribe(
            lambda snapshot: retained.__setitem__(snapshot.version, snapshot)
        )
        readers = [plane.reader(seed=100 + index) for index in range(NUM_READERS)]
        engine_factory = plane.clusterer.query_engine.fork
        cursor = 0
        for op in schedule:
            if op[0] == "ingest":
                size = 37 * op[1]
                plane.ingest(POOL[cursor : cursor + size])
                cursor = (cursor + size) % (POOL.shape[0] - 200)
            elif plane.version == 0:
                continue  # nothing published yet: queries would 503
            elif op[0] == "query":
                _, index, k = op
                result = readers[index].query(k)
                histories[index].append(((k,), False, result.version, [result]))
            else:
                _, index = op
                ks = (2, 3)
                results = readers[index].query_multi_k(ks)
                histories[index].append(
                    (ks, True, results[ks[0]].version, [results[k] for k in ks])
                )
    finally:
        plane.close()
    return retained, histories, engine_factory


def replay_and_check(retained, histories, engine_factory):
    """Replay each reader's history single-threaded; demand bitwise equality."""
    for index, history in enumerate(histories):
        versions = [entry[2] for entry in history]
        assert versions == sorted(versions), f"reader {index} versions not monotonic"
        assert set(versions) <= set(retained), (
            f"reader {index} served an unpublished version"
        )
        engine = engine_factory()
        rng = np.random.default_rng(100 + index)
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
                assert result.warm_start == solution.warm_start


@pytest.mark.parametrize("kind", PLANE_KINDS)
class TestLinearizability:
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedule=SCHEDULES)
    def test_served_results_replay_from_published_snapshots(self, kind, schedule):
        retained, histories, engine_factory = run_interleaving(kind, schedule)
        replay_and_check(retained, histories, engine_factory)
