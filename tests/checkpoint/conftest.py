"""Fixtures for the checkpoint/restore test battery (helpers in _checkpoint_utils)."""

from __future__ import annotations

import numpy as np
import pytest

from _checkpoint_utils import make_checkpoint_stream
from backend_matrix import enabled_backends


@pytest.fixture(params=enabled_backends())
def backend(request) -> str:
    """Parametrized over every executor backend enabled via REPRO_TEST_BACKENDS."""
    return request.param


@pytest.fixture(scope="session")
def checkpoint_stream() -> np.ndarray:
    """A mixed 3-cluster stream (1400 x 4) shared across checkpoint tests."""
    return make_checkpoint_stream()
