"""Extensions beyond the paper's core algorithms.

The paper's conclusion lists three natural follow-ups, all implemented here:

* streaming k-median with coreset caching (:mod:`repro.extensions.kmedian`),
* time-decaying weights and sliding windows for concept drift
  (:mod:`repro.extensions.decay`), plus soft (fuzzy c-means) serving
  (:mod:`repro.extensions.soft`),
* clustering over distributed / parallel streams (the parallel sharded
  engine, :mod:`repro.parallel`).

All extension algorithms are registered in the
:class:`~repro.core.registry.AlgorithmRegistry` under the names ``window``,
``decay``, and ``soft``.
"""

from .decay import DecayedCoresetClusterer, SlidingWindowClusterer
from .kmedian import (
    KMedianCachedClusterer,
    KMedianConfig,
    kmedian_cost,
    kmedian_seeding,
    kmedian_sensitivity_coreset,
    weighted_kmedian,
)
from .soft import SoftClusteringClusterer

__all__ = [
    "DecayedCoresetClusterer",
    "SlidingWindowClusterer",
    "SoftClusteringClusterer",
    "KMedianCachedClusterer",
    "KMedianConfig",
    "kmedian_cost",
    "kmedian_seeding",
    "kmedian_sensitivity_coreset",
    "weighted_kmedian",
]

