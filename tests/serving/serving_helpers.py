"""Shared builders for the serving battery (imported by tests and conftest).

Kept in a uniquely-named module (not ``conftest``) so both hypothesis test
bodies and fixtures can import the same plane builders without relying on
pytest's conftest import machinery.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.base import StreamingConfig
from repro.core.driver import CachedCoresetTreeClusterer
from repro.serving.plane import ServingPlane

#: Reader-thread count knob for the concurrency tests (CI runs 2 values).
READER_COUNT = max(1, int(os.environ.get("REPRO_SERVING_READERS", "4")))

#: The stress/soak tests always use at least 8 readers (the ISSUE floor).
STRESS_READERS = max(8, READER_COUNT)

PLANE_KINDS = ("driver", "sharded-serial", "sharded-process")


def build_clusterer(config: StreamingConfig, kind: str):
    """One coreset-backed clusterer of the requested shape."""
    if kind == "driver":
        return CachedCoresetTreeClusterer(config)
    backend = kind.split("-", 1)[1]
    return CachedCoresetTreeClusterer.sharded(config, num_shards=2, backend=backend)


def build_plane(config: StreamingConfig, kind: str, **kwargs) -> ServingPlane:
    """A serving plane over a fresh clusterer of the requested shape."""
    return ServingPlane(build_clusterer(config, kind), **kwargs)


def make_stream(num_points: int = 4000, dimension: int = 5, seed: int = 7) -> np.ndarray:
    """A well-separated 4-blob stream (deterministic)."""
    generator = np.random.default_rng(seed)
    centers = generator.normal(size=(4, dimension)) * 8.0
    labels = generator.integers(0, 4, size=num_points)
    noise = generator.normal(scale=0.4, size=(num_points, dimension))
    return centers[labels] + noise
