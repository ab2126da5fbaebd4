"""Compute-kernel layer: pooled scratch, fused chunked distances, fast scatters.

The update path of every streaming algorithm in this reproduction bottoms out
in the same three numeric primitives, and this package is their single home:

* :mod:`~repro.kernels.workspace` — a per-structure :class:`Workspace` buffer
  pool.  A coreset merge has a fixed input shape (at most ``r * m`` points of
  dimension ``d``), so after the first merge every scratch array (distance
  blocks, CDFs, labels, sampled-index buffers) is reused and the steady-state
  merge performs no new scratch allocations.
* :mod:`~repro.kernels.distance` — fused, *chunked* pairwise-distance kernels
  computing ``||x||^2 - 2 x.c + ||c||^2`` tile by tile, so the scratch stays
  in a bounded workspace block instead of materialising an ``(n, k)`` float64
  temporary per call.
* :mod:`~repro.kernels.scatter` — ``np.bincount``-based weighted scatters
  (per-cluster sums, weights, costs) replacing every ``np.add.at`` (which
  falls back to a per-element ufunc inner loop).
* :mod:`~repro.kernels.sketch` — opt-in seeded Johnson–Lindenstrauss
  projections (dense Gaussian or CountSketch).  Points are projected once at
  ingest and the merge/query inner loops run in the sketched space; sampled
  outputs, centers, and reported costs stay full-precision via an exact
  top-2 re-rank.
* :mod:`~repro.kernels.dtypes` — the compute-dtype policy.  Points may be
  stored and multiplied in ``float32`` (halving memory bandwidth end to end),
  but costs, weights, and CDF accumulators always use ``float64`` so quality
  metrics and sampling probabilities stay honest.

On the default ``float64`` path, fusion only reorders commutative additions
and moves results into preallocated buffers — and kernel tiling is a pure
function of problem shape — so every bit-identity contract of the package
(batch==point ingestion, snapshot→restore→ingest, serial==process)
holds exactly as before.  (Outputs can differ from *previous releases* in
the last ulp: BLAS summation order depends on call shapes, and the seeding
loop now tracks assignments incrementally.)
"""

from .dtypes import DEFAULT_DTYPE, SUPPORTED_DTYPES, resolve_dtype
from .distance import (
    assign_chunked,
    chunk_rows_for,
    min_sq_update,
    pooled_row_norms,
    sq_distances_to_center,
)
from .scatter import weighted_bincount, weighted_label_sums
from .sketch import SKETCH_KINDS, Sketcher, sketch_for, top2_chunked
from .workspace import Workspace

__all__ = [
    "DEFAULT_DTYPE",
    "SKETCH_KINDS",
    "SUPPORTED_DTYPES",
    "Sketcher",
    "Workspace",
    "assign_chunked",
    "chunk_rows_for",
    "min_sq_update",
    "pooled_row_norms",
    "resolve_dtype",
    "sketch_for",
    "sq_distances_to_center",
    "top2_chunked",
    "weighted_bincount",
    "weighted_label_sums",
]
