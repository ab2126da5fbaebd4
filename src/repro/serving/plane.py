"""The plane split: a locked ingest writer and lock-free snapshot readers.

:class:`ServingPlane` wraps any coreset-backed clusterer (a
:class:`~repro.core.driver.StreamClusterDriver` or a
:class:`~repro.parallel.engine.ShardedEngine`) and separates its two roles:

* :meth:`ServingPlane.ingest` runs on the writer under the ingest lock and,
  after the batch settles, assembles the query coreset **on the ingest
  thread** (``query_coreset`` legitimately mutates CC/RCC caches, so coreset
  assembly can never move to a reader) and publishes it as an immutable
  :class:`~repro.serving.snapshot.CoresetSnapshot`.
* :meth:`ServingPlane.reader` hands out :class:`PlaneReader` objects — one
  per serving thread.  A reader owns a private warm-start
  :class:`~repro.queries.serving.QueryEngine` (warm state is mutable, so it
  is never shared) and a private RNG; its queries load
  ``publisher.latest`` once and solve on that snapshot without ever touching
  the ingest lock.

A restored plane (:meth:`ServingPlane.restore`) republishes immediately, so
readers serve the checkpointed stream position before any new point arrives.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.serving_mixin import CoresetServingMixin
from .snapshot import CoresetSnapshot, SnapshotPublisher

__all__ = ["ServingPlane", "PlaneReader", "ServedResult", "SnapshotUnavailable"]


class SnapshotUnavailable(RuntimeError):
    """Raised by readers when no snapshot has been published yet."""


@dataclass(frozen=True)
class ServedResult:
    """One query answered from a published snapshot.

    Attributes
    ----------
    k:
        Number of centers requested.
    centers:
        Array of shape ``(k, d)``.
    cost:
        Weighted k-means cost of the centers on the snapshot's coreset.
    version:
        Version of the snapshot the answer was computed from.
    snapshot_points:
        Stream position the snapshot summarises.
    staleness_points:
        Points ingested by the writer but not yet visible in the served
        snapshot, sampled when the query started.
    staleness_seconds:
        Age of the served snapshot when newer points exist (0.0 when the
        snapshot is current).
    warm_start:
        True when the reader's warm-start Lloyd descent alone produced the
        answer.
    coreset_points:
        Weighted points the solver ran on.
    solve_seconds:
        Wall-clock of the solve (the reader pays no assembly cost — the
        coreset was assembled at publish time).
    """

    k: int
    centers: np.ndarray
    cost: float
    version: int
    snapshot_points: int
    staleness_points: int
    staleness_seconds: float
    warm_start: bool
    coreset_points: int
    solve_seconds: float


class ServingPlane:
    """Writer-side coordinator: serialized ingest, RCU snapshot publication.

    Parameters
    ----------
    clusterer:
        Any coreset-backed clusterer (CT/CC/RCC driver or sharded engine).
    auto_publish:
        Publish a fresh snapshot after every :meth:`ingest` call (default).
        With ``False`` the caller controls publication cadence via
        :meth:`publish` — e.g. one publish per N batches to trade staleness
        for publish cost.
    """

    def __init__(self, clusterer: CoresetServingMixin, auto_publish: bool = True) -> None:
        if not isinstance(clusterer, CoresetServingMixin):
            raise TypeError(
                "ServingPlane requires a coreset-backed clusterer "
                f"(CoresetServingMixin), got {type(clusterer).__name__}"
            )
        self._clusterer = clusterer
        self._auto_publish = auto_publish
        self._ingest_lock = threading.Lock()
        self._publisher = SnapshotPublisher()
        # Deterministic per-reader seed stream: readers created in the same
        # order on two identical planes draw identical randomness.
        self._reader_seeds = np.random.SeedSequence(clusterer.config.seed)
        self._readers_created = 0
        # Stream position of the wrapped clusterer's last coreset assembly.
        # Tracked per clusterer (reset by adopt) so the publish dedupe never
        # skips an assembly the recovery-equivalence contract requires.
        self._published_points: int | None = None
        if clusterer.points_seen > 0:
            # Wrapping a clusterer that already holds stream state (warm
            # construction or a checkpoint restore): publish immediately so
            # readers can serve before the next batch arrives.
            self.publish()

    # -- introspection -------------------------------------------------------

    @property
    def clusterer(self) -> CoresetServingMixin:
        """The wrapped clusterer (writer-plane use only)."""
        return self._clusterer

    @property
    def config(self):
        """The clusterer's :class:`~repro.core.base.StreamingConfig`."""
        return self._clusterer.config

    @property
    def publisher(self) -> SnapshotPublisher:
        """The snapshot publication cell readers load from."""
        return self._publisher

    @property
    def version(self) -> int:
        """Version of the most recently published snapshot (0 before one)."""
        return self._publisher.version

    @property
    def points_ingested(self) -> int:
        """Stream position of the writer (may be ahead of the snapshot)."""
        return self._clusterer.points_seen

    def staleness(self) -> tuple[int, float]:
        """Current ``(points, seconds)`` lag of the published snapshot."""
        snapshot = self._publisher.latest
        if snapshot is None:
            return self._clusterer.points_seen, 0.0
        behind = self._clusterer.points_seen - snapshot.points_seen
        seconds = time.monotonic() - snapshot.published_at if behind > 0 else 0.0
        return behind, seconds

    def snapshot_age(self) -> float:
        """Wall-clock seconds since the latest snapshot was published.

        Unlike :meth:`staleness` — which reports 0.0 whenever the writer has
        nothing newer, so a *dead* writer looks perfectly current — this is
        the raw age of what readers are serving.  It is the signal the
        staleness ceiling in degraded mode keys on.  ``inf`` before the
        first publication.
        """
        snapshot = self._publisher.latest
        if snapshot is None:
            return float("inf")
        return time.monotonic() - snapshot.published_at

    # -- writer plane --------------------------------------------------------

    def ingest(self, points: np.ndarray) -> CoresetSnapshot | None:
        """Insert a batch and (by default) publish the settled snapshot.

        Returns the snapshot published for this batch, or ``None`` when
        ``auto_publish`` is off or no point has arrived yet.
        """
        with self._ingest_lock:
            self._clusterer.insert_batch(points)
            if self._auto_publish:
                return self._publish_locked()
        return None

    def publish(self) -> CoresetSnapshot | None:
        """Assemble and publish a snapshot of the current stream position.

        No-op (returns ``None``) before the first point: there is nothing a
        reader could solve on.
        """
        with self._ingest_lock:
            return self._publish_locked()

    def reshard(self, new_num_shards: int):
        """Reshard the wrapped engine in place without dropping readers.

        Takes the ingest lock for the duration of the quiesce so no batch
        races the backend teardown, then republishes.  The redistributed
        union coreset represents the same stream position, so readers see
        either the pre- or post-reshard snapshot — both summarise identical
        data — and never an intermediate state.  Only sharded engines
        expose :meth:`~repro.parallel.engine.ShardedEngine.reshard`; other
        clusterers raise ``TypeError``.
        """
        resharder = getattr(self._clusterer, "reshard", None)
        if resharder is None:
            raise TypeError(
                f"{type(self._clusterer).__name__} does not support resharding; "
                "wrap a ShardedEngine to use ServingPlane.reshard"
            )
        with self._ingest_lock:
            report = resharder(int(new_num_shards))
            self._publish_locked()
        return report

    def adopt(self, clusterer: CoresetServingMixin) -> None:
        """Swap in a replacement clusterer (crash recovery) without publishing.

        The supervisor's seam: after a writer crash it restores a fresh
        clusterer from the last good checkpoint and adopts it here, so the
        plane object — and every server/reader holding it — survives the
        incident.  Readers keep answering from the last published snapshot;
        the adopted instance's own ingests publish as soon as they *reach*
        that position (publication is monotonic in stream position, so a
        mid-replay plane never serves older data than it already has).  No
        coreset is assembled here: the checkpointed state already reflects
        an assembly at its position, and an extra one would break the
        bit-identical recovery-equivalence contract.  The replaced
        clusterer is closed best-effort (its workers may already be dead).
        """
        if not isinstance(clusterer, CoresetServingMixin):
            raise TypeError(
                "ServingPlane.adopt requires a coreset-backed clusterer "
                f"(CoresetServingMixin), got {type(clusterer).__name__}"
            )
        with self._ingest_lock:
            retired = self._clusterer
            self._clusterer = clusterer
            self._published_points = None
        if retired is not clusterer:
            closer = getattr(retired, "close", None)
            if closer is not None:
                try:
                    closer()
                except Exception:  # noqa: BLE001 - the old engine may be half-dead
                    pass

    def _publish_locked(self) -> CoresetSnapshot | None:
        points = self._clusterer.points_seen
        if points == 0:
            return None
        latest = self._publisher.latest
        if self._published_points == points and latest is not None:
            # Nothing settled since the last assembly; keep the version (and
            # the readers' warm caches) stable instead of re-assembling.
            return latest
        coreset, cache_stats = self._clusterer.collect_serving_snapshot()
        self._published_points = points
        if latest is not None and points < latest.points_seen:
            # A recovering writer replaying the journal behind the last
            # pre-crash publication: the assembly ran (the clusterer's state
            # evolution must match an uninterrupted run exactly), but the
            # publisher keeps the newer snapshot — readers never see stream
            # position go backwards.
            return None
        dimension = self._clusterer.dimension or int(coreset.points.shape[1])
        return self._publisher.publish(
            coreset,
            points_seen=points,
            dimension=dimension,
            cache_stats=cache_stats,
        )

    # -- reader plane --------------------------------------------------------

    def reader(self, seed: int | None = None) -> "PlaneReader":
        """Create a reader with private warm-start state and randomness.

        ``seed`` pins the reader's RNG for deterministic replay; by default
        each reader draws the next child of the plane's seed sequence, so
        reader ``i`` of two identical planes is identically seeded.
        """
        with self._ingest_lock:
            if seed is None:
                # spawn() is stateful: each call yields the next child, so
                # reader i always gets child i regardless of interleaving.
                rng = np.random.default_rng(self._reader_seeds.spawn(1)[0])
            else:
                rng = np.random.default_rng(seed)
            self._readers_created += 1
        return PlaneReader(self, rng)

    # -- lifecycle / checkpointing -------------------------------------------

    def close(self) -> None:
        """Close the wrapped clusterer (sharded engines tear down workers)."""
        closer = getattr(self._clusterer, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ServingPlane":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def snapshot(self, path: str | Path, annotations: dict | None = None) -> Path:
        """Checkpoint the wrapped clusterer at a quiesced stream position."""
        with self._ingest_lock:
            return self._clusterer.snapshot(path, annotations=annotations)

    @classmethod
    def restore(cls, path: str | Path, auto_publish: bool = True, **overrides) -> "ServingPlane":
        """Rebuild a plane from a checkpoint and republish immediately.

        ``overrides`` pass through to the checkpoint restore (e.g.
        ``backend="process"`` for a sharded engine).  The restored plane's
        first published version is 1 — snapshot versions are a property of
        the serving session, not of the stream.
        """
        from ..checkpoint import load_checkpoint

        clusterer = load_checkpoint(path, **overrides)
        if not isinstance(clusterer, CoresetServingMixin):
            closer = getattr(clusterer, "close", None)
            if closer is not None:
                closer()
            raise TypeError(
                f"checkpoint at {path} holds a {type(clusterer).__name__}, "
                "which cannot serve through a ServingPlane"
            )
        return cls(clusterer, auto_publish=auto_publish)


class PlaneReader:
    """One serving thread's handle: private engine, private RNG, no locks.

    Not thread-safe — the whole point is that each serving thread owns one
    reader.  Create as many readers as there are threads.
    """

    def __init__(self, plane: ServingPlane, rng: np.random.Generator) -> None:
        self._plane = plane
        self._engine = plane.clusterer.query_engine.fork()
        self._rng = rng
        self._last_version = 0
        self._queries_served = 0

    @property
    def engine(self):
        """This reader's private warm-start engine (counters included)."""
        return self._engine

    @property
    def last_version(self) -> int:
        """Snapshot version of the most recent query (0 before one)."""
        return self._last_version

    @property
    def queries_served(self) -> int:
        """Queries this reader has answered."""
        return self._queries_served

    def _load_snapshot(self) -> CoresetSnapshot:
        snapshot = self._plane.publisher.latest
        if snapshot is None:
            raise SnapshotUnavailable(
                "no snapshot published yet: ingest at least one point first"
            )
        return snapshot

    def _staleness(self, snapshot: CoresetSnapshot) -> tuple[int, float]:
        # points_ingested is read *after* the snapshot reference, and the
        # writer's counter only grows, so the lag is never negative.
        behind = self._plane.points_ingested - snapshot.points_seen
        seconds = time.monotonic() - snapshot.published_at if behind > 0 else 0.0
        return behind, seconds

    def query(self, k: int | None = None) -> ServedResult:
        """Answer one query from the latest published snapshot."""
        snapshot = self._load_snapshot()
        k = int(k) if k is not None else self._plane.config.k
        behind, seconds = self._staleness(snapshot)
        start = time.perf_counter()
        solution = self._engine.solve(snapshot.coreset, k, self._rng)
        solve_seconds = time.perf_counter() - start
        self._last_version = snapshot.version
        self._queries_served += 1
        return ServedResult(
            k=k,
            centers=solution.centers,
            cost=solution.cost,
            version=snapshot.version,
            snapshot_points=snapshot.points_seen,
            staleness_points=behind,
            staleness_seconds=seconds,
            warm_start=solution.warm_start,
            coreset_points=snapshot.size,
            solve_seconds=solve_seconds,
        )

    def query_multi_k(self, ks: Sequence[int]) -> dict[int, ServedResult]:
        """Answer a batched k-sweep — every ``k`` from the SAME snapshot.

        This is the server's coalescing primitive: requests batched into one
        sweep are guaranteed a mutually consistent view of the stream.
        """
        snapshot = self._load_snapshot()
        behind, seconds = self._staleness(snapshot)
        start = time.perf_counter()
        solutions = self._engine.solve_multi(
            snapshot.coreset, tuple(int(k) for k in ks), self._rng
        )
        solve_seconds = (time.perf_counter() - start) / max(len(solutions), 1)
        self._last_version = snapshot.version
        self._queries_served += len(solutions)
        return {
            k: ServedResult(
                k=k,
                centers=solution.centers,
                cost=solution.cost,
                version=snapshot.version,
                snapshot_points=snapshot.points_seen,
                staleness_points=behind,
                staleness_seconds=seconds,
                warm_start=solution.warm_start,
                coreset_points=snapshot.size,
                solve_seconds=solve_seconds,
            )
            for k, solution in solutions.items()
        }
