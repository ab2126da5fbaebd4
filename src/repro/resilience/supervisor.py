"""Supervised durable ingest: journal, checkpoint, recover, keep serving.

:class:`IngestSupervisor` is the control loop that turns the pieces —
:class:`~repro.resilience.wal.WriteAheadLog`,
:class:`~repro.checkpoint.store.CheckpointStore`,
:class:`~repro.serving.plane.ServingPlane` — into one crash-tolerant
pipeline (structurally after elspeth's orchestrator/executors split: the
supervisor owns lifecycle and policy, the plane/clusterer own the work):

* every accepted batch is journaled **write-ahead** (append, then insert),
  so the set {checkpoint, WAL} always covers every acknowledged point;
* checkpoints are written through a rotating retention store
  (``keep_last``) and each success truncates the journal's covered prefix;
* when the writer dies (a crashed worker backend, a poisoned batch, a
  simulated whole-process crash from the chaos harness), recovery restores
  the newest *good* snapshot — automatically falling back past a corrupt
  one — replays the journal on top, and :meth:`~ServingPlane.adopt`\\ s the
  rebuilt clusterer into the live plane, bit-identical to a run that never
  crashed.  Readers keep answering from the last published snapshot the
  whole time;
* restarts are budgeted: seeded-jitter exponential backoff between
  attempts, a bounded number of restarts per rolling window, and an
  explicit :class:`HealthState` (``LIVE / DEGRADED / RECOVERING / DOWN``)
  that the serving server exposes through its ``health`` op.

See ``docs/operations.md`` ("Durable ingest") for the runbook.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from ..checkpoint import CheckpointError, load_checkpoint
from ..checkpoint.store import (
    CheckpointStore,
    checkpoint_position,
    prune_checkpoints,
    validate_checkpoint,
)
from ..serving.plane import ServingPlane
from .wal import WriteAheadLog, replay_wal

__all__ = [
    "HealthState",
    "RestartPolicy",
    "RecoveryEvent",
    "SupervisorError",
    "IngestSupervisor",
    "DurableIngestLoop",
]


class HealthState(str, Enum):
    """Health of the supervised ingest pipeline.

    ``LIVE``
        Ingesting and publishing normally.
    ``RECOVERING``
        A writer failure was detected; restore + replay is in progress.
    ``DEGRADED``
        Ingest is halted (restart budget exhausted, or the feeding loop
        died) but queries are still answerable from the last published
        snapshot — the degraded-serving mode.
    ``DOWN``
        Nothing to serve: ingest is halted *and* no snapshot was ever
        published.
    """

    LIVE = "live"
    RECOVERING = "recovering"
    DEGRADED = "degraded"
    DOWN = "down"


class SupervisorError(RuntimeError):
    """Recovery failed permanently (restart budget exhausted or bad state)."""


@dataclass(frozen=True)
class RestartPolicy:
    """Budgeted, jittered restart behaviour for the supervisor.

    Attributes
    ----------
    max_restarts:
        Restarts allowed inside any rolling ``window_s`` before the
        supervisor gives up and degrades (0 disables recovery entirely).
    window_s:
        The rolling window the budget applies to.
    backoff_base_s / backoff_cap_s:
        Attempt ``n`` sleeps a uniform draw from
        ``[0, min(cap, base * 2**n)]`` — full jitter, so a fleet of
        supervisors restarting after one shared incident decorrelates.
    seed:
        Seeds the jitter RNG (deterministic chaos runs); ``None`` draws
        from the system RNG.
    """

    max_restarts: int = 5
    window_s: float = 60.0
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    seed: int | None = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered backoff before restart ``attempt`` (0-based)."""
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
        return rng.uniform(0.0, ceiling)


@dataclass
class RecoveryEvent:
    """One completed recovery, for observability and the chaos assertions."""

    cause: str
    restored_from: str | None
    replayed_records: int
    replayed_points: int
    reapplied_inflight: bool
    attempts: int
    duration_s: float


@dataclass
class SupervisorStats:
    """Monotonic counters for the supervised pipeline."""

    batches_ingested: int = 0
    points_ingested: int = 0
    checkpoints_written: int = 0
    checkpoint_failures: int = 0
    recoveries: int = 0
    events: list[RecoveryEvent] = field(default_factory=list)


class IngestSupervisor:
    """Durable, self-healing writer for a :class:`ServingPlane`.

    Parameters
    ----------
    plane:
        The serving plane whose clusterer this supervisor feeds.  The plane
        object stays stable across recoveries (readers and servers keep
        their reference); only the wrapped clusterer is swapped via
        :meth:`ServingPlane.adopt`.
    store:
        Rotating checkpoint store (retention included).
    wal_dir:
        Journal directory for the write-ahead log.
    clusterer_factory:
        Builds a fresh, empty clusterer for cold recovery — a crash before
        the first checkpoint replays the whole journal onto this.
    checkpoint_every_batches:
        Write a retained checkpoint (and truncate the journal) every N
        accepted batches; ``None`` checkpoints only on :meth:`checkpoint` /
        :meth:`close` calls.
    fsync_every:
        Journal durability knob (see :class:`WriteAheadLog`).
    policy:
        Restart budget and backoff.
    annotations:
        Stream-identity annotations stamped into every checkpoint.
    restore_overrides:
        Forwarded to ``load_checkpoint`` during recovery (e.g.
        ``backend="process"``).
    wal_write_hook:
        Chaos seam forwarded to every :class:`WriteAheadLog` incarnation.
    """

    def __init__(
        self,
        plane: ServingPlane,
        store: CheckpointStore,
        wal_dir: str | Path,
        *,
        clusterer_factory: Callable[[], object] | None = None,
        checkpoint_every_batches: int | None = None,
        fsync_every: int = 8,
        policy: RestartPolicy | None = None,
        annotations: dict | None = None,
        restore_overrides: dict | None = None,
        wal_write_hook: Callable | None = None,
    ) -> None:
        if checkpoint_every_batches is not None and checkpoint_every_batches < 1:
            raise ValueError("checkpoint_every_batches must be >= 1 (or None)")
        self._plane = plane
        self._store = store
        self._wal_dir = Path(wal_dir)
        self._factory = clusterer_factory
        self._checkpoint_every = checkpoint_every_batches
        self._fsync_every = fsync_every
        self._policy = policy or RestartPolicy()
        self._annotations = dict(annotations) if annotations else None
        self._restore_overrides = dict(restore_overrides) if restore_overrides else {}
        self._wal_write_hook = wal_write_hook
        self._wal = self._open_wal()
        self._restart_times: deque[float] = deque()
        self._jitter = random.Random(self._policy.seed)
        self._batches_since_checkpoint = 0
        self._lock = threading.Lock()
        self._state = HealthState.LIVE
        self.stats = SupervisorStats()
        self.last_error: str | None = None

    # -- introspection -------------------------------------------------------

    @property
    def plane(self) -> ServingPlane:
        """The supervised serving plane."""
        return self._plane

    @property
    def wal(self) -> WriteAheadLog:
        """The current journal incarnation (replaced on recovery)."""
        return self._wal

    @property
    def store(self) -> CheckpointStore:
        """The rotating checkpoint store."""
        return self._store

    def health(self) -> HealthState:
        """Current pipeline health (what the server's ``health`` op reports)."""
        state = self._state
        if state is HealthState.DEGRADED and self._plane.publisher.latest is None:
            return HealthState.DOWN
        return state

    # -- durability plumbing -------------------------------------------------

    def _open_wal(self) -> WriteAheadLog:
        return WriteAheadLog(
            self._wal_dir,
            fsync_every=self._fsync_every,
            write_hook=self._wal_write_hook,
        )

    def _reopen_wal(self) -> None:
        # Mimic a process restart: never touch the crashed incarnation's
        # tail; a fresh WriteAheadLog always appends into a new segment.
        try:
            self._wal.close()
        except Exception:  # noqa: BLE001 - the old handle may be poisoned
            pass
        self._wal = self._open_wal()

    # -- ingest path ---------------------------------------------------------

    def ingest(self, batch: np.ndarray) -> None:
        """Journal then apply one batch, recovering the writer on failure.

        Write-ahead ordering: the journal append happens first, so once
        this method returns the batch survives any crash; if the append
        itself is torn by a crash, the batch was never applied either and
        the journal tail is discarded on replay — state and journal agree
        at every byte.
        """
        data = np.asarray(batch)
        with self._lock:
            position = self._plane.points_ingested
            try:
                self._wal.append(data, position)
                self._plane.ingest(data)
            except Exception as exc:  # noqa: BLE001 - any writer death routes here
                self._recover_locked(data, position, exc)
            self._state = HealthState.LIVE
            self.stats.batches_ingested += 1
            self.stats.points_ingested += int(data.shape[0])
            self._batches_since_checkpoint += 1
            if (
                self._checkpoint_every is not None
                and self._batches_since_checkpoint >= self._checkpoint_every
            ):
                self._checkpoint_locked()

    def checkpoint(self) -> Path | None:
        """Write a retained snapshot now and truncate the journal behind it."""
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Path | None:
        position = self._plane.points_ingested
        if position == 0:
            return None
        try:
            path = self._plane.snapshot(
                self._store.path_for(position), annotations=self._annotations
            )
            prune_checkpoints(self._store.root, self._store.keep_last)
        except CheckpointError as exc:
            # A failed snapshot (disk-full, for one) is NOT fatal: the
            # journal still covers everything since the last good one, so
            # ingest and serving continue — just with a longer replay.
            self.stats.checkpoint_failures += 1
            self.last_error = f"checkpoint failed: {exc}"
            self._batches_since_checkpoint = 0
            return None
        # Truncate only through the newest *validated-good* snapshot that is
        # not the newest one: if the journal stopped exactly at the newest
        # snapshot, that snapshot would be a single point of failure —
        # corrupt it and the points since the previous one are
        # unrecoverable.  Keeping one checkpoint interval of journal costs
        # little and makes "fall back past a corrupt newest snapshot"
        # always replayable.
        retained = self._store.list()
        for fallback in reversed(retained[:-1]):
            try:
                validate_checkpoint(fallback)
            except CheckpointError:
                continue
            self._wal.truncate_through(checkpoint_position(fallback))
            break
        self.stats.checkpoints_written += 1
        self._batches_since_checkpoint = 0
        return path

    # -- recovery ------------------------------------------------------------

    def _budget_exhausted(self, now: float) -> bool:
        while self._restart_times and now - self._restart_times[0] > self._policy.window_s:
            self._restart_times.popleft()
        return len(self._restart_times) >= self._policy.max_restarts

    def _recover_locked(
        self, batch: np.ndarray, position: int, cause: BaseException
    ) -> None:
        self._state = HealthState.RECOVERING
        started = time.monotonic()
        attempt = 0
        while True:
            now = time.monotonic()
            if self._budget_exhausted(now):
                self._state = HealthState.DEGRADED
                self.last_error = (
                    f"restart budget exhausted ({self._policy.max_restarts} in "
                    f"{self._policy.window_s:.0f}s) after {type(cause).__name__}: {cause}"
                )
                raise SupervisorError(self.last_error) from cause
            self._restart_times.append(now)
            delay = self._policy.delay(attempt, self._jitter)
            if delay > 0:
                time.sleep(delay)
            try:
                restored_from, replayed_records, replayed_points = self._rebuild()
                break
            except Exception as exc:  # noqa: BLE001 - retry within budget
                self.last_error = f"recovery attempt failed: {exc}"
                attempt += 1

        # Exactly-once for the in-flight batch: replay either already
        # applied it (its journal record survived the crash) or stopped at
        # the pre-batch position (the record was torn / the crash hit
        # before the append) — re-journal and re-apply only in that case.
        recovered = self._plane.points_ingested
        reapplied = False
        self._reopen_wal()
        if recovered == position:
            self._wal.append(batch, position)
            self._plane.ingest(batch)
            reapplied = True
        elif recovered != position + int(batch.shape[0]):
            self._state = HealthState.DEGRADED
            raise SupervisorError(
                f"recovery produced stream position {recovered}, expected "
                f"{position} or {position + int(batch.shape[0])}: the journal "
                "and checkpoint store disagree"
            ) from cause
        self.stats.recoveries += 1
        self.stats.events.append(
            RecoveryEvent(
                cause=f"{type(cause).__name__}: {cause}",
                restored_from=restored_from,
                replayed_records=replayed_records,
                replayed_points=replayed_points,
                reapplied_inflight=reapplied,
                attempts=attempt + 1,
                duration_s=time.monotonic() - started,
            )
        )
        self._state = HealthState.LIVE

    def _rebuild(self) -> tuple[str | None, int, int]:
        """Restore the newest good snapshot, adopt it, replay the journal.

        Replay runs *through the plane* — insert **and** coreset assembly
        per batch — because assembly mutates caches and RNG streams, so the
        recovered clusterer must repeat the exact insert/assemble history
        of the uninterrupted run to come out bit-identical.  Publication
        stays monotonic (see :meth:`ServingPlane.adopt`), so readers never
        observe the replay.
        """
        snapshot = self._store.latest_good()
        if snapshot is not None:
            clusterer = load_checkpoint(snapshot, **self._restore_overrides)
            restored_from = str(snapshot)
        elif self._factory is not None:
            clusterer = self._factory()
            restored_from = None
        else:
            raise SupervisorError(
                "no good checkpoint exists and no clusterer_factory was "
                "provided for cold recovery"
            )
        self._plane.adopt(clusterer)
        replayed_records = 0
        replayed_points = 0
        for record in replay_wal(self._wal_dir, start_points=int(clusterer.points_seen)):
            self._plane.ingest(record.batch)
            replayed_records += 1
            replayed_points += record.batch.shape[0]
        return restored_from, replayed_records, replayed_points

    # -- lifecycle -----------------------------------------------------------

    def resume(self) -> RecoveryEvent | None:
        """Cold-boot recovery: restore the newest good snapshot + replay.

        Call once at startup when the store or journal may hold state from a
        previous incarnation (``repro serve --checkpoint-to`` does).  A
        blank store and journal is a no-op returning ``None``.
        """
        from .wal import wal_segments

        with self._lock:
            if self._store.latest_good() is None and not wal_segments(self._wal_dir):
                return None
            started = time.monotonic()
            restored_from, replayed_records, replayed_points = self._rebuild()
            self._reopen_wal()
            self._state = HealthState.LIVE
            event = RecoveryEvent(
                cause="startup resume",
                restored_from=restored_from,
                replayed_records=replayed_records,
                replayed_points=replayed_points,
                reapplied_inflight=False,
                attempts=1,
                duration_s=time.monotonic() - started,
            )
            self.stats.events.append(event)
            return event

    def close(self, final_checkpoint: bool = True) -> Path | None:
        """Seal the pipeline: optional final checkpoint + truncate, close WAL."""
        path = None
        with self._lock:
            if final_checkpoint:
                path = self._checkpoint_locked()
            self._wal.close()
        return path

    def __enter__(self) -> "IngestSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(final_checkpoint=exc_type is None)


class DurableIngestLoop(threading.Thread):
    """Drop-in for :class:`~repro.serving.loadgen.IngestLoop`, supervised.

    Feeds a (wrapping) point stream through an :class:`IngestSupervisor`
    instead of straight into the plane, so every served batch is journaled
    and the writer self-heals.  If recovery fails permanently the loop
    parks instead of dying silently — the supervisor is already DEGRADED
    and the server keeps answering from the last snapshot.
    """

    def __init__(
        self,
        supervisor: IngestSupervisor,
        points: np.ndarray,
        batch_size: int = 500,
    ) -> None:
        super().__init__(name="repro-durable-ingest", daemon=True)
        self._supervisor = supervisor
        self._points = points
        self._batch_size = batch_size
        self._halt = threading.Event()
        self._go = threading.Event()
        self._go.set()
        self.batches_ingested = 0
        self.failure: str | None = None

    def run(self) -> None:
        """Feed batches while running; park permanently on SupervisorError."""
        cursor = 0
        n = self._points.shape[0]
        while not self._halt.is_set():
            if not self._go.wait(timeout=0.05):
                continue
            end = min(cursor + self._batch_size, n)
            try:
                self._supervisor.ingest(self._points[cursor:end].copy())
            except SupervisorError as exc:
                self.failure = str(exc)
                self._halt.wait()
                return
            self.batches_ingested += 1
            cursor = end % n

    def pause(self) -> None:
        """Stop feeding (the thread stays alive)."""
        self._go.clear()

    def resume(self) -> None:
        """Resume feeding."""
        self._go.set()

    def stop(self) -> None:
        """Terminate the loop and join the thread."""
        self._halt.set()
        self._go.set()
        self.join(timeout=10.0)
