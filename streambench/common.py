"""Inputs, the SciPy reference and small statistics shared by the workloads."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
import warnings

import numpy as np

#: Clustering parameters of every workload: the covtype-like stream (d=54),
#: ``k = 20`` and the default base-bucket size ``m = 20 k``.
K = 20
DIMENSION = 54
#: Points generated per run.  Longer streams cycle through this pool, so
#: memory stays at ~43 MB whatever the run length.
POOL_POINTS = 100_000
#: The stream prefix the quality check and the SciPy reference run on.
REFERENCE_POINTS = 10_000
REFERENCE_RESTARTS = 3
#: A checked set of centers may cost at most this multiple of the reference.
#: Served and final answers measured 0.75x-2.0x of the reference on this
#: stream; k stream points drawn at random measured 3.9x-22x.
COST_FACTOR = 2.5
#: The measured phase is cut into this many windows of equal length; each
#: timing is the median over the windows, so a burst of load from elsewhere
#: on the machine moves one window, not the result.
WINDOWS = 4


def make_pool(seed: int) -> np.ndarray:
    """The seeded covtype-like point pool a run's stream cycles through."""
    from repro.data import load_covtype

    return load_covtype(num_points=POOL_POINTS, seed=seed).points


class Stream:
    """Endless stream over the pool: consecutive slices, wrapping around."""

    def __init__(self, pool: np.ndarray) -> None:
        self.pool = pool
        self.sent = 0

    def take(self, n: int) -> np.ndarray:
        start = self.sent % self.pool.shape[0]
        self.sent += n
        if start + n <= self.pool.shape[0]:
            return self.pool[start : start + n]
        return np.take(self.pool, np.arange(start, start + n), axis=0, mode="wrap")


def cost(points: np.ndarray, centers: np.ndarray) -> float:
    """k-means cost (sum of squared distances to the nearest center)."""
    sq = (
        np.einsum("ij,ij->i", points, points)[:, None]
        - 2.0 * points @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return float(np.maximum(sq.min(axis=1), 0.0).sum())


def reference_costs(seed: int, ks=(K,), pool: np.ndarray | None = None) -> dict[int, float]:
    """Best-of-restarts SciPy ``kmeans2(minit="++")`` cost on the prefix."""
    from scipy.cluster.vq import kmeans2

    if pool is None:
        pool = make_pool(seed)
    prefix = pool[:REFERENCE_POINTS]
    result = {}
    for k in ks:
        best = np.inf
        for restart in range(REFERENCE_RESTARTS):
            with warnings.catch_warnings():
                # A restart that empties a cluster costs more; the best of
                # the restarts is kept, so its warning says nothing here.
                warnings.simplefilter("ignore", UserWarning)
                centers, _ = kmeans2(
                    prefix, k, iter=20, minit="++",
                    rng=np.random.default_rng([seed, k, restart]),
                )
            best = min(best, cost(prefix, centers))
        result[int(k)] = best
    return result


class QualityCheck:
    """Compares centers with the SciPy reference on the stream prefix."""

    def __init__(self, seed: int, pool: np.ndarray, ks=(K,)) -> None:
        self.prefix = pool[:REFERENCE_POINTS]
        self.reference = reference_costs(seed, ks, pool)
        self.ratios: dict[int, list[float]] = {k: [] for k in self.reference}

    @property
    def worst_ratio(self) -> float:
        return max((max(r) for r in self.ratios.values() if r), default=0.0)

    def summary(self) -> dict:
        """Checked answers and their worst cost ratio, per k."""
        return {
            str(k): {"checked": len(r), "worst_ratio": max(r)}
            for k, r in self.ratios.items()
            if r
        }

    def ok(self, centers: np.ndarray) -> bool:
        k = int(centers.shape[0])
        ratio = cost(self.prefix, centers) / self.reference[k]
        self.ratios[k].append(ratio)
        return ratio <= COST_FACTOR


class Windows:
    """Samples of the measured phase, kept per window of equal length.

    Every statistic is the median over the windows of that statistic within
    a window.  Work past the last window (a run that must still reach a
    stream position) counts in the last window.
    """

    def __init__(self, seconds: float, start: float | None = None) -> None:
        self.start = time.perf_counter() if start is None else start
        self.width = seconds / WINDOWS
        self.points = [0] * WINDOWS
        self.busy = [0.0] * WINDOWS
        self.query_us: list[list[float]] = [[] for _ in range(WINDOWS)]
        self.write_us: list[list[float]] = [[] for _ in range(WINDOWS)]

    def _window(self, at: float | None) -> int:
        elapsed = (time.perf_counter() if at is None else at) - self.start
        return max(0, min(int(elapsed / self.width), WINDOWS - 1))

    def add_work(self, points: int, busy_s: float, at: float | None = None) -> None:
        """``points`` absorbed in ``busy_s`` seconds of the program's calls."""
        window = self._window(at)
        self.points[window] += points
        self.busy[window] += busy_s

    def add_query(self, seconds: float, at: float | None = None) -> None:
        self.query_us[self._window(at)].append(seconds * 1e6)

    def add_write(self, seconds: float, at: float | None = None) -> None:
        self.write_us[self._window(at)].append(seconds * 1e6)

    def rates(self) -> list[float]:
        return [p / b for p, b in zip(self.points, self.busy) if b > 0]

    def rate(self) -> float:
        return median(self.rates())

    @staticmethod
    def latency(per_window: list[list[float]], q: float) -> float:
        return median([percentile(values, q) for values in per_window if values])

    @staticmethod
    def smallest(per_window: list[list[float]]) -> int:
        """Fewest samples in a window (a tail needs ten beyond it in each)."""
        return min(len(values) for values in per_window)


def valid_centers(centers, k: int) -> bool:
    """``k`` finite centers of the stream's dimension."""
    array = np.asarray(centers, dtype=np.float64)
    return array.shape == (k, DIMENSION) and bool(np.isfinite(array).all())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# Runs at the lowest priority the scheduler has and spins until its parent
# is gone; it gets a core only when nothing else wants it.
_SPINNER = """
import os, sys, time
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == parent:
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pass
"""


@contextlib.contextmanager
def cores_kept_awake():
    """Keep every core busy with an idle-priority spinner while measuring.

    On a virtual machine an idle core halts, and the host may take
    milliseconds to run it again when work arrives.  On the 2-core VM this
    benchmark was built on that made serving latencies swing 2x from run
    to run; with the cores kept busy the swing went away.  The spinners
    yield to every other process at once, so the program loses no time.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)])
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if it was started, and wait for it.

    The process backend's shared-memory slabs start the tracker as a child
    of this process.  Left alone it outlives the run by the moment it takes
    to notice its parent has gone, and nobody waits for it.  Every slab is
    unlinked by then (the engine's ``close()`` did it), so stopping it
    loses nothing.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def wait_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)
