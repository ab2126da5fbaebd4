"""Executor backends for the sharded ingestion engine.

Every shard op — insert a block, collect a coreset snapshot, dump or load
the shard's state tree, adopt an inherited coreset piece, count stored
points, sync — goes through one dispatch function, :func:`run_shard_op`.
Two transports deliver ops to it:

* :class:`SerialBackend` — shards run inline in the caller's thread.  Fully
  deterministic, zero overhead; the bitwise reference every other transport
  is tested against.
* :class:`ProcessBackend` — one worker process per shard.  Point batches are
  copied into a per-shard shared-memory slab ring and announced with a tiny
  ``(slab, slot, rows)`` message, so ndarray payloads are **never pickled**;
  a semaphore over the ring's free slots is what bounds the work queue.
  Only control replies (coreset snapshots, state trees, counters) travel
  back, over one reply pipe per worker — never a queue shared across
  workers, whose single write lock a killed worker could leave held forever.

Both transports expose the same three calls: ``submit(i, block)`` (ordered,
bounded inserts), ``call(op, args)`` (one control op per addressed shard,
all in flight at once; returns ``{shard: reply}``) and an idempotent
``close``.  Worker failures never hang the coordinator: a raised exception
inside a process worker is recorded (with its traceback) and re-raised as
:class:`ShardWorkerError` at the next ``submit``/``call``, and ``close``
always leaves no live worker processes behind.  Recovering a lost worker is
not the engine's job: the write-ahead journal and
:class:`~repro.resilience.IngestSupervisor` rebuild the whole engine from a
checkpoint plus replay.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.base import StreamingConfig
from .shard import StreamShard, make_shard

__all__ = [
    "BACKENDS",
    "ShardWorkerError",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
    "run_shard_op",
]

BACKENDS: tuple[str, ...] = ("serial", "process")

# How long submit/call wait on a stalled worker before giving up.  Generous:
# it only triggers when a worker neither progresses nor reports an error
# (e.g. it was killed externally), never on a merely busy worker.
_STALL_TIMEOUT = 120.0

# Insert slots in each process worker's slab ring.  Acquiring a free slot is
# what bounds the work queue: the coordinator blocks once a shard is this
# many blocks behind.
_QUEUE_DEPTH = 8

# Lower bound on rows per slab slot; a slot holds at least two buckets.
_MIN_SLOT_ROWS = 1024

# fork is dramatically cheaper and keeps test-local shard factories
# picklable-by-inheritance; fall back where it is absent.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

ShardFactory = Callable[..., StreamShard]


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the shard index and the worker traceback."""

    def __init__(self, shard_index: int, detail: str) -> None:
        super().__init__(f"shard {shard_index} worker failed: {detail}")
        self.shard_index = shard_index
        self.detail = detail


# Lambdas, not unbound methods, so shard subclasses' overrides take effect.
_SHARD_OPS: dict[str, Callable[[StreamShard, object], object]] = {
    "insert": lambda shard, block: shard.insert_batch(block),
    "collect": lambda shard, dimension: shard.snapshot(dimension),
    "state_dump": lambda shard, _: shard.state_dict(),
    "state_load": lambda shard, state: shard.load_state(state),
    # arg: (inherited coreset piece, points it represents, reset first?)
    "adopt": lambda shard, arg: shard.adopt(arg[0], arg[1], reset=arg[2]),
    # Accounting only: must not touch the shard's coresets or sampling
    # streams (keeps the transports bit-equivalent).
    "stored_points": lambda shard, _: shard.stored_points(),
    "sync": lambda shard, _: None,
}


def run_shard_op(shard: StreamShard, op: str, arg=None):
    """Apply one shard op — the single dispatch both transports share."""
    return _SHARD_OPS[op](shard, arg)


@dataclass
class _ShardSpec:
    """Construction recipe for one shard (picklable for process workers).

    ``factory`` receives ``(config, shard_index, seed, structure)`` plus
    ``nesting_depth`` as a keyword (custom factories may ignore it via
    ``**kwargs``).
    """

    config: StreamingConfig
    shard_index: int
    seed: int | None
    structure: str
    nesting_depth: int = 3
    factory: ShardFactory = make_shard

    def build(self) -> StreamShard:
        return self.factory(
            self.config,
            self.shard_index,
            self.seed,
            self.structure,
            nesting_depth=self.nesting_depth,
        )


class SerialBackend:
    """Inline execution: every shard runs in the caller's thread."""

    name = "serial"

    def __init__(self, specs: Sequence[_ShardSpec]) -> None:
        self._shards = [spec.build() for spec in specs]

    @property
    def shards(self) -> list[StreamShard]:
        """The in-process shard objects."""
        return self._shards

    def submit(self, shard_index: int, block: np.ndarray) -> None:
        """Apply one insert block to a shard (inline, exceptions propagate)."""
        run_shard_op(self._shards[shard_index], "insert", block)

    def call(self, op: str, args: Mapping[int, object]) -> dict[int, object]:
        """Run ``op`` on every addressed shard, in index order."""
        return {
            index: run_shard_op(self._shards[index], op, arg)
            for index, arg in args.items()
        }

    def close(self) -> None:
        """Nothing to tear down (idempotent)."""


def _attach_shared_memory(name: str):
    """Attach an existing shared-memory slab (worker side).

    The creating (coordinator) process owns the segment's lifecycle and
    unlinks it at ``close``; workers only map it.  The resource tracker is
    shared across the fork/spawn tree, so the coordinator's registration
    covers the attachment — no extra bookkeeping here.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _process_worker(spec: _ShardSpec, task_queue, result_conn, free_slots) -> None:
    """Worker-process main loop: build the shard, consume tasks until stopped.

    Control messages ``(op, seq, arg)`` carry a coordinator-issued sequence
    number that is echoed in the reply (inserts carry none; they never
    reply).  The coordinator drops replies whose sequence number does not
    match the op in flight, so a reply left over from an op that was
    abandoned on another shard's error can never satisfy a later barrier.

    Replies travel over a per-worker pipe, NOT a queue shared across
    workers: a shared queue serializes writers through one cross-process
    lock, and a worker killed inside that critical section (crash, SIGKILL,
    fault-injection `terminate()`) would leave the lock held forever,
    wedging every *other* shard's replies.  With one pipe per worker a
    kill at any instant can only corrupt that worker's own channel.  Sends
    happen from this (main) thread — no feeder thread, so there is no window
    where a reply has been delivered but a lock is still held.
    """
    slabs: dict[str, object] = {}
    index = spec.shard_index
    try:
        shard = spec.build()
    except BaseException:
        result_conn.send(("error", index, -1, traceback.format_exc()))
        return
    try:
        while True:
            message = task_queue.get()
            op = message[0]
            if op == "stop":
                return
            seq = -1
            try:
                if op == "insert":
                    _, name, offset_rows, nrows, dimension, dtype_name = message
                    slab = slabs.get(name)
                    if slab is None:
                        slab = _attach_shared_memory(name)
                        slabs[name] = slab
                    dtype = np.dtype(dtype_name)
                    view = np.ndarray(
                        (nrows, dimension),
                        dtype=dtype,
                        buffer=slab.buf,  # type: ignore[attr-defined]
                        offset=offset_rows * dimension * dtype.itemsize,
                    )
                    # One copy out of the ring, then the slot is reusable; the
                    # shard may alias `block` in its buckets indefinitely.
                    block = np.array(view, dtype=dtype, copy=True)
                    free_slots.release()
                    run_shard_op(shard, "insert", block)
                else:
                    _, seq, arg = message
                    result_conn.send(("ok", index, seq, run_shard_op(shard, op, arg)))
            except BaseException:
                result_conn.send(("error", index, seq, traceback.format_exc()))
                return
    finally:
        result_conn.close()
        for slab in slabs.values():
            slab.close()  # type: ignore[attr-defined]


class _SlabRing:
    """Coordinator-side shared-memory ring of fixed-size insert slots.

    The slab stores rows in the stream's storage dtype: float32 streams halve
    the segment footprint and the per-batch copy bandwidth.
    """

    def __init__(self, slot_rows: int, depth: int, dimension: int, dtype: np.dtype) -> None:
        from multiprocessing import shared_memory

        self.slot_rows = slot_rows
        self.depth = depth
        self.dimension = dimension
        self.dtype = np.dtype(dtype)
        self._shm = shared_memory.SharedMemory(
            create=True, size=depth * slot_rows * dimension * self.dtype.itemsize
        )
        self.name = self._shm.name
        self._view = np.ndarray(
            (depth * slot_rows, dimension), dtype=self.dtype, buffer=self._shm.buf
        )
        self._next_slot = 0

    def write(self, chunk: np.ndarray) -> int:
        """Copy ``chunk`` into the next slot; returns the slot's row offset."""
        slot = self._next_slot
        self._next_slot = (slot + 1) % self.depth
        offset = slot * self.slot_rows
        self._view[offset : offset + chunk.shape[0]] = chunk
        return offset

    def destroy(self) -> None:
        """Release and unlink the segment (creator side)."""
        self._view = None  # drop the exported buffer before closing
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass


class ProcessBackend:
    """One worker process per shard with shared-memory ndarray handoff."""

    name = "process"

    def __init__(self, specs: Sequence[_ShardSpec]) -> None:
        context = mp.get_context(_START_METHOD)
        try:
            # Start the parent's resource tracker BEFORE forking workers so
            # every worker inherits it.  Otherwise each worker's slab attach
            # spawns a private tracker that reports the (parent-owned,
            # correctly unlinked) segment as leaked when the worker exits.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker API is semi-private
            pass
        self._queue_depth = _QUEUE_DEPTH
        self._slot_rows = max(_MIN_SLOT_ROWS, 2 * specs[0].config.bucket_size)
        self._tasks = []
        self._semaphores = []
        self._processes = []
        # One reply pipe per worker (parent keeps the read end).  A queue
        # shared across workers funnels every reply through one
        # cross-process write lock, so a worker killed mid-send poisons
        # the lock and stalls all OTHER shards' barriers; a per-worker
        # pipe confines kill-at-any-instant damage to the dead worker's
        # own channel.
        self._result_conns: list = []
        self._rings: list[_SlabRing | None] = [None] * len(specs)
        self._errors: dict[int, str] = {}
        self._op_seq = 0
        self._closed = False
        for spec in specs:
            tasks = context.Queue()
            free_slots = context.Semaphore(self._queue_depth)
            recv_conn, send_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_process_worker,
                args=(spec, tasks, send_conn, free_slots),
                daemon=True,
            )
            process.start()
            # Drop the parent's copy of the write end so a dead worker reads
            # as EOF instead of a silent hang.
            send_conn.close()
            self._tasks.append(tasks)
            self._semaphores.append(free_slots)
            self._result_conns.append(recv_conn)
            self._processes.append(process)

    @property
    def shards(self) -> list[StreamShard]:
        """Process workers own their shards; there is nothing to expose here."""
        raise RuntimeError(
            "shards live inside worker processes under backend='process'; "
            "use collect()/snapshots instead"
        )

    # -- error plumbing ------------------------------------------------------

    def _receive(self, index: int):
        """One message from worker ``index``'s pipe, or ``None`` at EOF.

        EOF means the worker died (possibly killed mid-send, leaving a torn
        message in its own pipe — never anyone else's); the pipe is retired
        so an EOF-ready pipe cannot spin ``poll()``.  Error reports are
        recorded for :meth:`_raise_if_failed`.
        """
        conn = self._result_conns[index]
        try:
            message = conn.recv()
        except (EOFError, OSError):
            conn.close()
            self._result_conns[index] = None
            return None
        if message[0] == "error":
            self._errors[message[1]] = message[3]
        return message

    def _raise_if_failed(self) -> None:
        for index, conn in enumerate(self._result_conns):
            while conn is not None and conn.poll(0):
                if self._receive(index) is None:
                    break
        if self._errors:
            index = min(self._errors)
            raise ShardWorkerError(index, self._errors[index])

    def _check_alive(self, index: int) -> None:
        if not self._processes[index].is_alive():
            raise ShardWorkerError(
                index, self._errors.get(index, "worker process died")
            )

    # -- the backend contract ------------------------------------------------

    def submit(self, shard_index: int, block: np.ndarray) -> None:
        """Copy ``block`` into the shard's slab ring and announce the slots.

        Blocks longer than one slot are split into slot-sized chunks; the
        shard applies them in order, which yields the exact same shard state
        (batch ingestion is split-invariant).  Acquiring a free slot is what
        bounds the queue: the coordinator blocks here when the shard is
        ``_QUEUE_DEPTH`` slots behind.
        """
        self._raise_if_failed()
        dimension = block.shape[1]
        ring = self._rings[shard_index]
        if ring is None:
            ring = _SlabRing(self._slot_rows, self._queue_depth, dimension, block.dtype)
            self._rings[shard_index] = ring
        if ring.dimension != dimension:
            raise ValueError(
                f"points dimension is {dimension}, expected {ring.dimension}"
            )
        if ring.dtype != block.dtype:
            raise ValueError(
                f"points dtype is {block.dtype}, expected {ring.dtype}"
            )
        for start in range(0, block.shape[0], ring.slot_rows):
            chunk = block[start : start + ring.slot_rows]
            self._acquire_slot(shard_index)
            offset_rows = ring.write(chunk)
            self._tasks[shard_index].put(
                ("insert", ring.name, offset_rows, chunk.shape[0], dimension, ring.dtype.name)
            )

    def _acquire_slot(self, shard_index: int) -> None:
        deadline = time.monotonic() + _STALL_TIMEOUT
        while not self._semaphores[shard_index].acquire(timeout=0.05):
            self._raise_if_failed()
            self._check_alive(shard_index)
            if time.monotonic() > deadline:
                raise RuntimeError(f"shard {shard_index} slab ring stalled")

    def call(self, op: str, args: Mapping[int, object]) -> dict[int, object]:
        """Send ``op`` to every addressed worker at once and await each reply.

        The workers run the op concurrently (a cross-shard ``collect``
        computes every snapshot in parallel).  Because each worker's queue is
        FIFO, a reply also proves every insert submitted before it has been
        applied — which is what makes ``call("sync", ...)`` a barrier.
        """
        self._raise_if_failed()
        self._op_seq += 1
        seq = self._op_seq
        for index, arg in args.items():
            self._tasks[index].put((op, seq, arg))
        replies: dict[int, object] = {}
        deadline = time.monotonic() + _STALL_TIMEOUT
        while len(replies) < len(args):
            missing = [index for index in args if index not in replies]
            live = [
                (index, conn)
                for index, conn in enumerate(self._result_conns)
                if conn is not None
            ]
            ready = connection.wait([conn for _, conn in live], timeout=0.1) if live else []
            if not ready:
                # Receive nothing here: a reply that lands after the wait
                # timed out is read by the next wait, never dropped.
                for index in missing:
                    self._check_alive(index)
                if time.monotonic() > deadline:
                    raise RuntimeError(f"shards {missing} barrier stalled")
                continue
            for index, conn in live:
                if conn not in ready:
                    continue
                message = self._receive(index)
                if message is None:
                    continue  # the liveness check surfaces the dead worker
                if message[0] == "error":
                    raise ShardWorkerError(message[1], message[3])
                # Replies to a superseded op carry an older seq and are
                # discarded here.
                if message[2] == seq and message[1] in missing:
                    replies[message[1]] = message[3]
        return replies

    def close(self) -> None:
        """Stop workers, join them, and unlink every shared-memory slab.

        Idempotent, and guaranteed to leave no live worker processes: a
        worker that does not exit within the stall timeout is terminated.
        """
        if self._closed:
            return
        self._closed = True
        for process, tasks in zip(self._processes, self._tasks):
            if process.is_alive():
                try:
                    tasks.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - closed queue
                    pass
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        for ring in self._rings:
            if ring is not None:
                ring.destroy()
        self._rings = [None] * len(self._rings)
        for tasks in self._tasks:
            tasks.close()
            tasks.cancel_join_thread()
        for conn in self._result_conns:
            if conn is not None:
                conn.close()


def make_backend(name: str, specs: Sequence[_ShardSpec]):
    """Instantiate an executor backend by name (one of :data:`BACKENDS`)."""
    return {"serial": SerialBackend, "process": ProcessBackend}[name](specs)
