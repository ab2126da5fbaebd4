"""Run-time tracing of the layers of ``repro``, from outside the package.

:class:`Tracer` replaces the entry points of each layer with thin wrappers
while a traced run is active and restores the originals afterwards, so
nothing under ``src/`` changes.  A wrapper records one span per call — name,
start, end, parent span and a request id shared by every span of one
request — and, where a ratio needs it, a count at the same boundary.  Spans
stay in memory and are written out only when the run ends, to a path given
on the command line.

Parent spans are tracked with a :class:`contextvars.ContextVar`, which keeps
nesting right for threads and for interleaved asyncio tasks alike.  Worker
processes forked by the process backend inherit the wrappers but record
nothing: only the process that installed the tracer keeps spans.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

_SPAN = contextvars.ContextVar("streambench_span", default=None)
_REQUEST = contextvars.ContextVar("streambench_request", default=None)
# Request ids of the jobs a serving worker has dequeued for its next solve.
_BATCH = contextvars.ContextVar("streambench_batch", default=())


class Span:
    """One traced call; ``parent`` and ``request`` are span/request ids."""

    __slots__ = ("id", "parent", "request", "name", "start", "end", "thread", "attrs")

    def __init__(self, span_id, parent, request, name, start, thread):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        record = {
            "id": self.id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.marks: dict[str, float] = {}
        self.counts_at: dict[str, Counter] = {}
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def active(self) -> bool:
        return os.getpid() == self._pid

    def open(self, name: str, request: int | None = None) -> tuple[Span, object, object]:
        parent = _SPAN.get()
        span_id = next(self._ids)
        if request is None:
            request = _REQUEST.get()
        span = Span(
            span_id,
            parent.id if parent is not None else None,
            request if request is not None else span_id,
            name,
            time.perf_counter(),
            threading.get_ident(),
        )
        self.spans.append(span)
        return span, _SPAN.set(span), _REQUEST.set(span.request)

    @staticmethod
    def close(opened: tuple[Span, object, object]) -> Span:
        span, span_token, request_token = opened
        span.end = time.perf_counter()
        _REQUEST.reset(request_token)
        _SPAN.reset(span_token)
        return span

    def add_span(self, name, start, end, request=None, parent=None) -> Span:
        """Record a span whose interval was measured elsewhere."""
        span = Span(next(self._ids), parent, request, name, start, threading.get_ident())
        span.end = end
        self.spans.append(span)
        return span

    def mark(self, label: str) -> None:
        """Remember when a phase of the run began, and the counts at that time."""
        self.marks[label] = time.perf_counter()
        self.counts_at[label] = Counter(self.counts)

    # -- wrapping --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Trace ``cls.attr`` (sync or async) as span ``name``."""
        original = cls.__dict__[attr]
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.active():
                    return await original(*args, **kwargs)
                opened = tracer.open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.close(opened)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active():
                    return original(*args, **kwargs)
                opened = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span = tracer.close(opened)
                if on_result is not None:
                    on_result(span, args, result)
                return result

        self._replace(cls, attr, wrapper)

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Trace a module-level function under every name it was imported as."""
        original = getattr(sys.modules[module_name], attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            opened = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(opened)

        for module_key, module in list(sys.modules.items()):
            if module_key != "repro" and not module_key.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest replacement first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# -- the layer entry points ----------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer of ``repro`` (import it first)."""
    from repro.checkpoint import load_checkpoint  # noqa: F401 - module loaded
    from repro.core.cache import CoresetCache
    from repro.core.cached_tree import CachedCoresetTree
    from repro.core.driver import StreamClusterDriver
    from repro.core.serving_mixin import CoresetServingMixin
    from repro.coreset.construction import CoresetConstructor
    from repro.parallel.backends import ProcessBackend
    from repro.parallel.engine import ShardedEngine
    from repro.queries.serving import QueryEngine
    from repro.resilience.supervisor import IngestSupervisor
    from repro.resilience.wal import WriteAheadLog
    from repro.serving import server as server_module
    from repro.serving.plane import PlaneReader, ServingPlane
    from repro.serving.snapshot import SnapshotPublisher

    # core
    tracer.wrap_method(StreamClusterDriver, "insert_batch", "core.insert_batch")
    tracer.wrap_method(CachedCoresetTree, "query_coreset", "core.assembly")
    _count_lookups(tracer, CoresetCache)
    # coreset
    tracer.wrap_method(CoresetConstructor, "build_for_span", "coreset.merge")
    tracer.wrap_method(CoresetConstructor, "build", "coreset.build")
    # kmeans
    tracer.wrap_function("repro.kmeans.kmeanspp", "kmeanspp_seeding", "kmeans.seeding")
    tracer.wrap_function("repro.kmeans.lloyd", "lloyd_iterations", "kmeans.lloyd")
    # queries
    tracer.wrap_method(QueryEngine, "solve", "queries.solve", on_result=_note_solution)
    tracer.wrap_method(QueryEngine, "solve_multi", "queries.solve", on_result=_note_solution)
    # serving
    tracer.wrap_method(ServingPlane, "ingest", "serving.ingest")
    tracer.wrap_method(CoresetServingMixin, "collect_serving_snapshot", "serving.collect")
    tracer.wrap_method(SnapshotPublisher, "publish", "serving.publish")
    tracer.wrap_method(PlaneReader, "query", "serving.reader_solve", on_result=_note_batch)
    tracer.wrap_method(
        PlaneReader, "query_multi_k", "serving.reader_solve", on_result=_note_batch
    )
    _wrap_server(tracer, server_module)
    # parallel
    tracer.wrap_method(ShardedEngine, "insert_batch", "parallel.submit")
    tracer.wrap_method(ShardedEngine, "flush", "parallel.flush")
    _count_shipped_bytes(tracer, ProcessBackend)
    # resilience
    tracer.wrap_method(WriteAheadLog, "append", "resilience.wal_append", on_result=_note_wal)
    tracer.wrap_method(IngestSupervisor, "ingest", "resilience.ingest")
    tracer.wrap_method(IngestSupervisor, "resume", "resilience.resume", on_result=_note_resume)
    # checkpoint
    tracer.wrap_function("repro.checkpoint", "load_checkpoint", "checkpoint.restore")


def _note_solution(span: Span, args, result) -> None:
    coreset = args[1]
    solutions = result.values() if isinstance(result, dict) else (result,)
    warm = sum(1 for solution in solutions if solution.warm_start)
    span.attrs = {
        "solutions": len(solutions),
        "warm": warm,
        "coreset_points": int(coreset.size),
    }


def _note_batch(span: Span, args, result) -> None:
    batch = _BATCH.get()
    if batch:
        span.attrs = {"requests": list(batch)}


def _note_wal(span: Span, args, result) -> None:
    span.attrs = {"bytes": int(result.batch.nbytes)}


def _note_resume(span: Span, args, result) -> None:
    if result is not None:
        span.attrs = {"replayed_points": int(result.replayed_points)}


def _count_lookups(tracer: Tracer, cache_cls) -> None:
    original = cache_cls.__dict__["lookup"]

    @functools.wraps(original)
    def lookup(self, *args, **kwargs):
        found = original(self, *args, **kwargs)
        if tracer.active():
            tracer.counts["core.cache_lookups"] += 1
            if found is not None:
                tracer.counts["core.cache_hits"] += 1
        return found

    tracer._replace(cache_cls, "lookup", lookup)


def _count_shipped_bytes(tracer: Tracer, backend_cls) -> None:
    original = backend_cls.__dict__["submit"]

    @functools.wraps(original)
    def submit(self, shard_index, block):
        if tracer.active():
            tracer.counts["parallel.bytes_shipped"] += int(block.nbytes)
        return original(self, shard_index, block)

    tracer._replace(backend_cls, "submit", submit)


# -- the TCP front end -----------------------------------------------------------


class _ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """Thread pool that runs each call in a copy of its submitter's context.

    The server's workers hand solves to the loop's default executor; copying
    the context carries the request ids of the batch into the solve's spans.
    """

    def submit(self, fn, /, *args, **kwargs):
        batch = _BATCH.get()
        context = contextvars.copy_context()
        _BATCH.set(())
        if batch:
            context.run(_REQUEST.set, batch[0])
        return super().submit(context.run, fn, *args, **kwargs)


def _wrap_server(tracer: Tracer, server_module) -> None:
    """Trace request dispatch, queue wait, solve hand-off and encoding."""
    server_cls = server_module.ServingServer
    # Queued job -> (request id, its dispatch span, time it was queued).
    job_requests: dict[int, tuple[int, int | None, float]] = {}

    class TracedQueue(asyncio.Queue):
        def put_nowait(self, item):
            if tracer.active():
                span = _SPAN.get()
                job_requests[id(item)] = (
                    _REQUEST.get(),
                    span.id if span is not None else None,
                    time.perf_counter(),
                )
            super().put_nowait(item)

        def get_nowait(self):
            item = super().get_nowait()
            entry = job_requests.get(id(item))
            if entry is not None:
                request, parent, put_at = entry
                tracer.add_span(
                    "serving.queue_wait", put_at, time.perf_counter(), request, parent
                )
                _BATCH.set(_BATCH.get() + (request,))
            return item

    class AsyncioShim:
        Queue = TracedQueue

        def __getattr__(self, name):
            return getattr(asyncio, name)

    class JsonShim:
        loads = staticmethod(json.loads)

        @staticmethod
        def dumps(obj, *args, **kwargs):
            if not (tracer.active() and isinstance(obj, dict) and obj.get("op") in (
                "query", "query_multi_k"
            )):
                return json.dumps(obj, *args, **kwargs)
            opened = tracer.open("serving.json")
            try:
                return json.dumps(obj, *args, **kwargs)
            finally:
                tracer.close(opened)

    original_start = server_cls.__dict__["start"]

    @functools.wraps(original_start)
    async def start(self):
        asyncio.get_running_loop().set_default_executor(
            _ContextExecutor(thread_name_prefix="asyncio")
        )
        return await original_start(self)

    original_dispatch = server_cls.__dict__["_dispatch"]

    @functools.wraps(original_dispatch)
    async def dispatch(self, line):
        # A fresh request id per request line.  It is set without a reset so
        # that the connection handler's following ``_send`` shares it.
        request = next(tracer._ids)
        _REQUEST.set(request)
        opened = tracer.open("serving.request", request=request)
        try:
            return await original_dispatch(self, line)
        finally:
            tracer.close(opened)

    original_format = server_module.__dict__["_format_response"]

    @functools.wraps(original_format)
    def format_response(job, results, batch):
        entry = job_requests.pop(id(job), None)
        opened = tracer.open("serving.format", request=entry[0] if entry else None)
        try:
            return original_format(job, results, batch)
        finally:
            tracer.close(opened)

    tracer._replace(server_cls, "start", start)
    tracer._replace(server_cls, "_dispatch", dispatch)
    tracer.wrap_method(server_cls, "_send", "serving.send")
    tracer._replace(server_module, "_format_response", format_response)
    tracer._replace(server_module, "asyncio", AsyncioShim())
    tracer._replace(server_module, "json", JsonShim())

