"""Shared helpers for the checkpoint/restore test battery.

``ALGORITHM_FACTORIES`` builds one small instance of every checkpointable
algorithm; the round-trip property tests iterate it so a newly registered
algorithm is automatically covered (a test asserts the factory table and the
checkpoint registry stay in sync).

The sharded tests reuse the shared ``REPRO_TEST_BACKENDS`` matrix
(``tests/backend_matrix.py``) so CI can bound runtime per job.  Fixtures live in the
sibling ``conftest.py``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines.birch import BirchClusterer
from repro.baselines.clustream import CluStreamClusterer
from repro.baselines.sequential import SequentialKMeans
from repro.baselines.streamkmpp import StreamKMpp
from repro.baselines.streamls import StreamLSClusterer
from repro.core.base import StreamingConfig
from repro.core.driver import (
    CachedCoresetTreeClusterer,
    CoresetTreeClusterer,
    RecursiveCachedClusterer,
)
from repro.core.online_cc import OnlineCCClusterer
from repro.extensions.decay import DecayedCoresetClusterer, SlidingWindowClusterer
from repro.extensions.kmedian import KMedianCachedClusterer, KMedianConfig
from repro.extensions.soft import SoftClusteringClusterer


def small_streaming_config(seed: int = 17) -> StreamingConfig:
    """A small, fast configuration shared by the checkpoint tests.

    ``REPRO_TEST_SKETCH`` (CI knob) enables JL sketching so every round-trip
    property — snapshot→restore bit-identity in particular — also covers the
    sketched slabs and the sketcher's entropy re-derivation.
    """
    return StreamingConfig(
        k=3,
        coreset_size=40,
        merge_degree=2,
        n_init=2,
        lloyd_iterations=4,
        seed=seed,
        sketch_dim=3 if os.environ.get("REPRO_TEST_SKETCH") else None,
    )


#: name -> factory(seed) for every single-process checkpointable algorithm.
ALGORITHM_FACTORIES = {
    "ct": lambda seed: CoresetTreeClusterer(small_streaming_config(seed)),
    "cc": lambda seed: CachedCoresetTreeClusterer(small_streaming_config(seed)),
    "rcc": lambda seed: RecursiveCachedClusterer(
        small_streaming_config(seed), nesting_depth=2
    ),
    "onlinecc": lambda seed: OnlineCCClusterer(
        small_streaming_config(seed), switch_threshold=1.5
    ),
    "streamkm++": lambda seed: StreamKMpp(small_streaming_config(seed)),
    "sequential": lambda seed: SequentialKMeans(3),
    "birch": lambda seed: BirchClusterer(3, threshold=0.8, max_features=50, seed=seed),
    "clustream": lambda seed: CluStreamClusterer(3, num_microclusters=30, seed=seed),
    "streamls": lambda seed: StreamLSClusterer(3, chunk_size=120, fanout=3, seed=seed),
    "decay": lambda seed: DecayedCoresetClusterer(
        small_streaming_config(seed), decay=0.9
    ),
    "window": lambda seed: SlidingWindowClusterer(
        small_streaming_config(seed), window_buckets=4
    ),
    "soft": lambda seed: SoftClusteringClusterer(
        small_streaming_config(seed), fuzziness=1.8
    ),
    "kmedian": lambda seed: KMedianCachedClusterer(
        KMedianConfig(k=3, coreset_size=40, n_init=2, max_iterations=4, seed=seed)
    ),
}


def make_checkpoint_stream() -> np.ndarray:
    """A mixed 3-cluster stream (1400 x 4) shared across checkpoint tests."""
    rng = np.random.default_rng(99)
    centers = rng.normal(scale=12.0, size=(3, 4))
    labels = rng.integers(0, 3, size=1400)
    return centers[labels] + rng.normal(scale=1.0, size=(1400, 4))
