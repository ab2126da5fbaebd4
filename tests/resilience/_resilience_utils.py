"""Shared builders for the resilience battery (WAL, supervisor, chaos).

The recovery-equivalence contract under test everywhere in this package:
an *uninterrupted* run is a :class:`~repro.serving.plane.ServingPlane`
ingesting batch after batch (insert + publish per batch — publication
mutates caches and RNG streams, so it is part of the reference history);
a *supervised* run must reach the exact same state — bit for bit — no
matter where it crashed, because restore-from-checkpoint plus WAL replay
reproduces that same insert/publish history.

``REPRO_TEST_BACKENDS`` bounds the sharded matrix per CI job
(``tests/backend_matrix.py``); ``REPRO_CHAOS_SEED`` reseeds every storm-driven
test so the CI matrix explores different fault schedules per lane.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.checkpoint import pack_state
from repro.checkpoint.store import CheckpointStore
from repro.core.base import StreamingConfig
from repro.core.driver import (
    CachedCoresetTreeClusterer,
    CoresetTreeClusterer,
    RecursiveCachedClusterer,
)
from repro.resilience import ChaosController, IngestSupervisor, RestartPolicy
from repro.serving.plane import ServingPlane

#: name -> factory(config) for the coreset clusterers the plane serves.
PLANE_ALGORITHMS = {
    "ct": lambda config: CoresetTreeClusterer(config),
    "cc": lambda config: CachedCoresetTreeClusterer(config),
    "rcc": lambda config: RecursiveCachedClusterer(config, nesting_depth=2),
}


def small_config(seed: int = 7, dtype: str = "float64") -> StreamingConfig:
    """The battery's small/fast configuration (mirrors the checkpoint suite)."""
    return StreamingConfig(
        k=3,
        coreset_size=40,
        merge_degree=2,
        n_init=2,
        lloyd_iterations=4,
        seed=seed,
        dtype=dtype,
    )


def make_factory(algorithm: str = "cc", *, seed: int = 7, dtype: str = "float64",
                 shards: int = 1, backend: str = "serial"):
    """A zero-argument clusterer factory (the supervisor's rebuild seam)."""
    config = small_config(seed, dtype)
    if shards > 1:
        return lambda: CachedCoresetTreeClusterer.sharded(
            config, num_shards=shards, backend=backend
        )
    build = PLANE_ALGORITHMS[algorithm]
    return lambda: build(config)


def make_batches(num_batches: int = 16, batch_size: int = 60, dimension: int = 4,
                 seed: int = 3) -> list[np.ndarray]:
    """A deterministic 3-blob stream pre-split into equal batches."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=10.0, size=(3, dimension))
    total = num_batches * batch_size
    labels = rng.integers(0, 3, size=total)
    points = centers[labels] + rng.normal(scale=0.8, size=(total, dimension))
    return [points[i : i + batch_size] for i in range(0, total, batch_size)]


def reference_state(factory, batches: list[np.ndarray]):
    """(skeleton, arrays) of an uninterrupted plane run over ``batches``."""
    plane = ServingPlane(factory())
    try:
        for batch in batches:
            plane.ingest(batch.copy())
        return pack_state(plane.clusterer._state_tree())
    finally:
        plane.close()


def capture_state(plane: ServingPlane):
    """(skeleton, arrays) of the plane's current clusterer state."""
    return pack_state(plane.clusterer._state_tree())


def assert_states_equal(actual, expected) -> None:
    """Bitwise state-tree equality: same skeleton, same bytes in every array."""
    actual_skeleton, actual_arrays = actual
    expected_skeleton, expected_arrays = expected
    assert actual_skeleton == expected_skeleton
    assert sorted(actual_arrays) == sorted(expected_arrays)
    for key, expected_array in expected_arrays.items():
        got = actual_arrays[key]
        assert got.dtype == expected_array.dtype, key
        np.testing.assert_array_equal(got, expected_array, err_msg=key)


def make_supervisor(tmp_path: Path, factory, *, chaos: ChaosController | None = None,
                    checkpoint_every_batches: int = 4, keep_last: int = 3,
                    policy: RestartPolicy | None = None,
                    fsync_every: int = 0) -> tuple[IngestSupervisor, ServingPlane]:
    """A fresh supervised plane rooted under ``tmp_path`` (no real sleeps)."""
    plane = ServingPlane(factory())
    supervisor = IngestSupervisor(
        plane,
        CheckpointStore(tmp_path / "ckpts", keep_last=keep_last),
        tmp_path / "wal",
        clusterer_factory=factory,
        checkpoint_every_batches=checkpoint_every_batches,
        fsync_every=fsync_every,
        policy=policy
        or RestartPolicy(seed=1, max_restarts=50, backoff_base_s=0.0, backoff_cap_s=0.0),
        wal_write_hook=chaos.wal_write_hook if chaos is not None else None,
    )
    return supervisor, plane
