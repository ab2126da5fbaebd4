"""Property tests: ingest→snapshot→restore→ingest is bit-identical.

The contract under test (the whole point of the checkpoint subsystem): for
every algorithm, splitting a stream at an arbitrary point, snapshotting,
restoring in a "new process", and continuing must produce *exactly* the
state an uninterrupted run reaches — same coresets, same query centers (bit
for bit, not approximately), warm-start and phase bookkeeping included.

Hypothesis drives the split position, the batch/point ingestion pattern, and
whether queries (which mutate caches, warm-start state, and RNG streams)
happen before the snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.parallel.engine import ShardedEngine

from _checkpoint_utils import ALGORITHM_FACTORIES, small_streaming_config


def _ingest(algorithm, points: np.ndarray, pattern: int) -> None:
    """Feed ``points`` via the batch or per-point path (both must round-trip)."""
    if pattern == 0:
        algorithm.insert_batch(points)
    elif pattern == 1:
        # Two uneven batches exercise partial-bucket boundaries.
        cut = max(1, points.shape[0] // 3)
        algorithm.insert_batch(points[:cut])
        algorithm.insert_batch(points[cut:])
    else:
        algorithm.insert_batch(points[: points.shape[0] // 2])
        for row in points[points.shape[0] // 2 :]:
            algorithm.insert(row)


def _roundtrip_equal(make, points, split, pattern, query_before, tmp_path):
    """Run reference vs snapshot/restore instances and compare bitwise."""
    reference = make()
    candidate = make()
    head, tail = points[:split], points[split:]
    if head.shape[0]:
        _ingest(reference, head, pattern)
        _ingest(candidate, head, pattern)
        if query_before:
            reference.query()
            candidate.query()

    path = save_checkpoint(candidate, tmp_path / "ckpt")
    restored = load_checkpoint(path)
    assert type(restored) is type(candidate)

    _ingest(reference, tail, pattern)
    _ingest(restored, tail, pattern)
    assert restored.points_seen == reference.points_seen == points.shape[0]
    assert restored.stored_points() == reference.stored_points()

    expected = reference.query()
    actual = restored.query()
    np.testing.assert_array_equal(actual.centers, expected.centers)
    # A second query exercises the restored warm-start / cache state.
    np.testing.assert_array_equal(restored.query().centers, reference.query().centers)


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    split=st.integers(min_value=1, max_value=1399),
    pattern=st.integers(min_value=0, max_value=2),
    query_before=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_bit_identical(
    name, split, pattern, query_before, seed, checkpoint_stream, tmp_path
):
    """Every algorithm: restore-then-continue equals never-stopped, bitwise."""
    factory = ALGORITHM_FACTORIES[name]
    _roundtrip_equal(
        lambda: factory(seed),
        checkpoint_stream,
        split,
        pattern,
        query_before,
        tmp_path,
    )


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    split=st.integers(min_value=1, max_value=1399),
    routing=st.sampled_from(["round_robin", "hash", "random"]),
    query_before=st.booleans(),
)
def test_sharded_roundtrip_bit_identical(
    split, routing, query_before, backend, checkpoint_stream, tmp_path
):
    """4-shard engine: snapshot on ``backend``, restore, continue — bitwise equal.

    The reference engine runs on the serial backend; backends are already
    proven bit-equivalent by tests/parallel, so this isolates checkpointing.
    Runs on every backend enabled via ``REPRO_TEST_BACKENDS`` — on the 1-core
    container the process backend still runs (correctness needs no cores),
    it is merely slower.
    """
    config = small_streaming_config(31)
    head, tail = checkpoint_stream[:split], checkpoint_stream[split:]

    with ShardedEngine(config, num_shards=4, backend="serial", routing=routing) as ref:
        with ShardedEngine(config, num_shards=4, backend=backend, routing=routing) as eng:
            if head.shape[0]:
                ref.insert_batch(head)
                eng.insert_batch(head)
                if query_before:
                    ref.query()
                    eng.query()
            path = save_checkpoint(eng, tmp_path / "ckpt")
        # The snapshotted engine is now closed: restore is a fresh "process".
        restored = load_checkpoint(path, backend=backend)
        try:
            ref.insert_batch(tail)
            restored.insert_batch(tail)
            assert restored.points_seen == ref.points_seen
            assert restored.shard_loads() == ref.shard_loads()
            np.testing.assert_array_equal(
                restored.query().centers, ref.query().centers
            )
        finally:
            restored.close()


def test_sharded_restore_onto_other_backends(checkpoint_stream, tmp_path):
    """A snapshot restores onto any executor backend with identical results."""
    config = small_streaming_config(7)
    head, tail = checkpoint_stream[:900], checkpoint_stream[900:]
    with ShardedEngine(config, num_shards=4, backend="serial") as eng:
        eng.insert_batch(head)
        eng.query()
        path = save_checkpoint(eng, tmp_path / "ckpt")
        eng.insert_batch(tail)
        expected = eng.query().centers

    for backend in ("serial", "process"):
        restored = load_checkpoint(path, backend=backend)
        try:
            assert restored.backend_name == backend
            restored.insert_batch(tail)
            np.testing.assert_array_equal(restored.query().centers, expected)
        finally:
            restored.close()


def test_registry_covers_every_factory():
    """The test factory table and the checkpoint registry stay in sync."""
    from repro.checkpoint import registered_classes

    registered = set(registered_classes())
    covered = set(ALGORITHM_FACTORIES) | {"sharded"}
    assert covered == registered
