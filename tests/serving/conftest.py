"""Shared fixtures for the serving-plane battery.

The plane tests run against every clusterer shape the plane supports: a
plain driver, a sharded engine on the serial backend, and a sharded engine
on the process backend (real cross-process worker traffic under the ingest
lock).  ``REPRO_SERVING_READERS`` scales the concurrent-reader tests — the
CI serving job runs the suite at two different values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import StreamingConfig

from serving_helpers import PLANE_KINDS, build_plane, make_stream


@pytest.fixture
def serving_config() -> StreamingConfig:
    return StreamingConfig(
        k=4, coreset_size=40, merge_degree=2, n_init=2, lloyd_iterations=5, seed=11
    )


@pytest.fixture
def stream_points() -> np.ndarray:
    return make_stream()


@pytest.fixture(params=PLANE_KINDS)
def plane_kind(request) -> str:
    return request.param


@pytest.fixture
def plane(serving_config, plane_kind):
    built = build_plane(serving_config, plane_kind)
    yield built
    built.close()
