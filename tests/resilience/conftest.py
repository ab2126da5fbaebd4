"""Fixtures for the resilience battery (helpers in ``_resilience_utils``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import chaos_seed_from_env

from _resilience_utils import make_batches
from backend_matrix import enabled_backends


@pytest.fixture(params=enabled_backends())
def backend(request) -> str:
    """Parametrized over every executor backend enabled via REPRO_TEST_BACKENDS."""
    return request.param


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """Storm seed: ``REPRO_CHAOS_SEED`` (CI matrix) or 0 for local runs."""
    return chaos_seed_from_env()


@pytest.fixture(scope="session")
def stream_batches() -> list[np.ndarray]:
    """The battery's shared deterministic stream, pre-split into batches."""
    return make_batches()
