"""Shared fixtures for the parallel-engine test battery.

``REPRO_TEST_BACKENDS`` and ``REPRO_TEST_SHARDS`` select the backend matrix
(see ``tests/backend_matrix.py``); one more knob is local to this battery:

* ``REPRO_TEST_SKETCH`` — when truthy, the shared configuration enables JL
  sketching (``sketch_dim=3`` against the 5-dimensional stream), so the whole
  battery — cross-backend equivalence, snapshots, global queries — exercises
  the sketched slabs instead of the exact-only path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.base import StreamingConfig

from backend_matrix import enabled_backends, num_test_shards


@pytest.fixture(params=enabled_backends())
def backend(request) -> str:
    """Parametrized over every enabled executor backend."""
    return request.param


@pytest.fixture()
def shards() -> int:
    """Shard count for parametrized engine tests."""
    return num_test_shards()


@pytest.fixture()
def parallel_config() -> StreamingConfig:
    """Small, fast configuration shared across the parallel tests."""
    sketch_dim = 3 if os.environ.get("REPRO_TEST_SKETCH") else None
    return StreamingConfig(
        k=4,
        coreset_size=50,
        n_init=2,
        lloyd_iterations=5,
        seed=11,
        sketch_dim=sketch_dim,
    )


@pytest.fixture(scope="session")
def stream_points() -> np.ndarray:
    """A mixed 4-cluster stream (3000 x 5) used across the parallel tests."""
    rng = np.random.default_rng(42)
    centers = rng.normal(scale=15.0, size=(4, 5))
    labels = rng.integers(0, 4, size=3000)
    return centers[labels] + rng.normal(scale=1.0, size=(3000, 5))
