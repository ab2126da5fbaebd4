"""Contract tests for the shard-op dispatcher and its two transports.

Every shard op goes through :func:`~repro.parallel.backends.run_shard_op`;
the ``serial`` transport calls it inline and the ``process`` transport calls
it from each worker's loop.  These tests pin the dispatcher op by op, then
drive both transports through the raw ``submit``/``call``/``close`` contract
(below the engine) against inline reference shards, and finally check the
process transport's safety rules: slot-sized block splitting, the bounded
slab ring, dimension/dtype guards, error surfacing and clean teardown.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.backends as backends_module
from repro.core.base import StreamingConfig
from repro.coreset.bucket import WeightedPointSet
from repro.parallel import ShardedEngine, ShardWorkerError
from repro.parallel.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    _ShardSpec,
    make_backend,
    run_shard_op,
)
from repro.parallel.routing import spawn_shard_seeds
from repro.parallel.shard import ShardSnapshot, StreamShard

from backend_matrix import enabled_backends

_BACKENDS = enabled_backends()
_NUM_SHARDS = 3


class ExplodingShard(StreamShard):
    """Shard whose inserts always fail (exercises error surfacing)."""

    def insert_batch(self, points):  # noqa: D102 - fault injection
        raise RuntimeError("injected insert failure")


def exploding_factory(config, shard_index, seed, structure, **kwargs):
    """Module-level factory (picklable) producing :class:`ExplodingShard`."""
    return ExplodingShard(config, shard_index, seed=seed, structure=structure)


@pytest.fixture(autouse=True)
def short_stall_timeout(monkeypatch):
    """Fail fast instead of waiting out the production stall deadline."""
    monkeypatch.setattr(backends_module, "_STALL_TIMEOUT", 20.0)


@pytest.fixture()
def config() -> StreamingConfig:
    return StreamingConfig(k=3, coreset_size=20, n_init=1, lloyd_iterations=3, seed=5)


def _specs(config: StreamingConfig, num_shards: int = _NUM_SHARDS, factory=None):
    seeds = spawn_shard_seeds(config.seed, num_shards)
    extra = {} if factory is None else {"factory": factory}
    return [
        _ShardSpec(config=config, shard_index=i, seed=seeds[i], structure="cc", **extra)
        for i in range(num_shards)
    ]


def _reference(config: StreamingConfig, num_shards: int = _NUM_SHARDS):
    """Inline shards built exactly as a transport builds its own."""
    return [spec.build() for spec in _specs(config, num_shards)]


def _blocks(points: np.ndarray, num_shards: int = _NUM_SHARDS):
    """Deterministic ragged per-shard blocks: ``[(shard, block), ...]``."""
    out, start, step = [], 0, 0
    sizes = (7, 31, 3, 64, 19, 45)
    while start < points.shape[0]:
        size = sizes[step % len(sizes)]
        out.append((step % num_shards, points[start : start + size]))
        start += size
        step += 1
    return out


def assert_trees_equal(left, right, path: str = "state") -> None:
    """Bitwise equality of two nested state trees (dicts, lists, arrays)."""
    if isinstance(left, dict):
        assert isinstance(right, dict), path
        assert set(left) == set(right), f"{path}: keys {set(left) ^ set(right)}"
        for key in left:
            assert_trees_equal(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert isinstance(right, (list, tuple)) and len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            assert_trees_equal(a, b, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), path
        assert left.dtype == right.dtype, path
        assert np.array_equal(left, right), path
    else:
        assert left == right, f"{path}: {left!r} != {right!r}"


def assert_snapshots_equal(left: ShardSnapshot, right: ShardSnapshot) -> None:
    assert left.shard_index == right.shard_index
    assert left.points_seen == right.points_seen
    assert left.stored_points == right.stored_points
    assert left.points.dtype == right.points.dtype
    assert np.array_equal(left.points, right.points)
    assert np.array_equal(left.weights, right.weights)


@pytest.fixture()
def points() -> np.ndarray:
    rng = np.random.default_rng(8)
    centers = rng.normal(scale=10.0, size=(3, 4))
    return centers[rng.integers(0, 3, size=600)] + rng.normal(size=(600, 4))


@pytest.fixture(params=_BACKENDS)
def transport(request, config):
    """A fresh raw transport of each kind over ``_NUM_SHARDS`` default shards."""
    backend = make_backend(request.param, _specs(config))
    try:
        yield backend
    finally:
        backend.close()


class TestRunShardOp:
    """The one dispatch table both transports share."""

    def test_op_vocabulary(self):
        assert set(backends_module._SHARD_OPS) == {
            "insert",
            "collect",
            "state_dump",
            "state_load",
            "adopt",
            "stored_points",
            "sync",
        }

    def test_unknown_op_raises(self, config):
        shard = _reference(config, 1)[0]
        with pytest.raises(KeyError):
            run_shard_op(shard, "restart", None)

    def test_insert_is_insert_batch(self, config, points):
        via_op, direct = _reference(config, 1)[0], _reference(config, 1)[0]
        for _, block in _blocks(points[:300], 1):
            assert run_shard_op(via_op, "insert", block) is None
            direct.insert_batch(block)
        assert_trees_equal(via_op.state_dict(), direct.state_dict())

    def test_collect_is_snapshot(self, config, points):
        shard = _reference(config, 1)[0]
        shard.insert_batch(points[:250])  # leaves a partial bucket
        snapshot = run_shard_op(shard, "collect", 4)
        assert isinstance(snapshot, ShardSnapshot)
        assert_snapshots_equal(snapshot, shard.snapshot(4))
        assert snapshot.points_seen == 250

    def test_collect_on_an_empty_shard_is_empty(self, config):
        snapshot = run_shard_op(_reference(config, 1)[0], "collect", 4)
        assert snapshot.points.shape == (0, 4)
        assert snapshot.points_seen == 0

    def test_state_dump_then_load_round_trips(self, config, points):
        source, target = _reference(config, 1)[0], _reference(config, 1)[0]
        source.insert_batch(points[:333])
        tree = run_shard_op(source, "state_dump")
        assert run_shard_op(target, "state_load", tree) is None
        assert_trees_equal(target.state_dict(), tree)
        # The restored shard continues the source's sampling stream exactly.
        source.insert_batch(points[333:500])
        target.insert_batch(points[333:500])
        assert_trees_equal(target.state_dict(), source.state_dict())

    @pytest.mark.parametrize("reset", [False, True])
    def test_adopt_accounts_for_represented_points(self, config, points, reset):
        shard = _reference(config, 1)[0]
        shard.insert_batch(points[:100])
        own_weight = 0.0 if reset else float(shard.local_coreset(4).weights.sum())
        piece = WeightedPointSet(points=points[500:510].copy(), weights=np.full(10, 3.0))
        run_shard_op(shard, "adopt", (piece, 30, reset))
        assert shard.points_seen == (30 if reset else 130)
        coreset = shard.local_coreset(4)
        assert np.isclose(coreset.weights.sum(), own_weight + 30.0)

    def test_stored_points_leaves_state_untouched(self, config, points):
        shard = _reference(config, 1)[0]
        shard.insert_batch(points[:210])
        before = shard.state_dict()
        assert run_shard_op(shard, "stored_points") == shard.stored_points()
        assert_trees_equal(shard.state_dict(), before)

    def test_sync_is_a_no_op(self, config, points):
        shard = _reference(config, 1)[0]
        shard.insert_batch(points[:90])
        before = shard.state_dict()
        assert run_shard_op(shard, "sync") is None
        assert_trees_equal(shard.state_dict(), before)

    def test_dispatch_reaches_subclass_overrides(self, config, points):
        shard = exploding_factory(config, 0, 1, "cc")
        with pytest.raises(RuntimeError, match="injected insert failure"):
            run_shard_op(shard, "insert", points[:5])


class TestTransportContract:
    """``submit``/``call``/``close`` behave identically on both transports."""

    def test_backend_names(self):
        assert BACKENDS == ("serial", "process")
        assert SerialBackend.name == "serial" and ProcessBackend.name == "process"

    def test_retired_thread_transport_is_rejected(self, config):
        with pytest.raises(KeyError):
            make_backend("thread", _specs(config))
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedEngine(config, num_shards=2, backend="thread")

    def test_collect_matches_inline_reference(self, transport, config, points):
        reference = _reference(config)
        for index, block in _blocks(points):
            transport.submit(index, block)
            reference[index].insert_batch(block)
        replies = transport.call("collect", dict.fromkeys(range(_NUM_SHARDS), 4))
        assert sorted(replies) == list(range(_NUM_SHARDS))
        for index, shard in enumerate(reference):
            assert_snapshots_equal(replies[index], shard.snapshot(4))

    def test_state_dump_matches_inline_reference(self, transport, config, points):
        reference = _reference(config)
        for index, block in _blocks(points):
            transport.submit(index, block)
            reference[index].insert_batch(block)
        trees = transport.call("state_dump", dict.fromkeys(range(_NUM_SHARDS)))
        for index, shard in enumerate(reference):
            assert_trees_equal(trees[index], shard.state_dict())

    def test_state_load_then_continue_matches_reference(self, transport, config, points):
        reference = _reference(config)
        for index, block in _blocks(points[:300]):
            reference[index].insert_batch(block)
        transport.call(
            "state_load", {i: shard.state_dict() for i, shard in enumerate(reference)}
        )
        for index, block in _blocks(points[300:]):
            transport.submit(index, block)
            reference[index].insert_batch(block)
        trees = transport.call("state_dump", dict.fromkeys(range(_NUM_SHARDS)))
        for index, shard in enumerate(reference):
            assert_trees_equal(trees[index], shard.state_dict())

    def test_adopt_reaches_only_the_addressed_shard(self, transport, config, points):
        piece = WeightedPointSet(points=points[:6].copy(), weights=np.full(6, 2.0))
        transport.call("adopt", {1: (piece, 12, False)})
        snapshots = transport.call("collect", dict.fromkeys(range(_NUM_SHARDS), 4))
        assert [snapshots[i].points_seen for i in range(_NUM_SHARDS)] == [0, 12, 0]
        assert np.array_equal(snapshots[1].points, points[:6])
        assert snapshots[0].points.shape[0] == snapshots[2].points.shape[0] == 0

    def test_stored_points_matches_reference(self, transport, config, points):
        reference = _reference(config)
        for index, block in _blocks(points):
            transport.submit(index, block)
            reference[index].insert_batch(block)
        counts = transport.call("stored_points", dict.fromkeys(range(_NUM_SHARDS)))
        assert counts == {i: shard.stored_points() for i, shard in enumerate(reference)}

    def test_call_replies_only_for_addressed_shards(self, transport, points):
        transport.submit(2, points[:40])
        only = transport.call("collect", {2: 4})
        assert list(only) == [2] and only[2].points_seen == 40
        pair = transport.call("collect", {0: 4, 2: 4})
        assert sorted(pair) == [0, 2]
        assert (pair[0].points_seen, pair[2].points_seen) == (0, 40)

    def test_call_with_no_shards_is_empty(self, transport):
        assert transport.call("sync", {}) == {}

    def test_sync_follows_every_submitted_insert(self, transport, points):
        for _ in range(5):
            transport.submit(0, points[:100])
        assert transport.call("sync", {0: None}) == {0: None}
        snapshot = transport.call("collect", {0: 4})[0]
        assert snapshot.points_seen == 500

    def test_close_is_idempotent(self, transport, points):
        transport.submit(0, points[:10])
        transport.close()
        transport.close()

    @pytest.mark.parametrize("name", _BACKENDS)
    def test_insert_failure_surfaces(self, name, config, points):
        # Inline inserts raise at submit; a worker's failure is recorded and
        # raised as ShardWorkerError at the next submit/call.
        backend = make_backend(name, _specs(config, 2, factory=exploding_factory))
        try:
            with pytest.raises(RuntimeError) as info:
                backend.submit(0, points[:10])
                backend.call("sync", {0: None, 1: None})
            assert "injected insert failure" in str(info.value)
            assert isinstance(info.value, ShardWorkerError) == (name == "process")
        finally:
            backend.close()


@pytest.mark.skipif(
    "process" not in _BACKENDS, reason="process backend disabled via REPRO_TEST_BACKENDS"
)
class TestProcessTransport:
    """Safety rules of the shared-memory process transport."""

    def _process(self, config, num_shards=2, **kwargs) -> ProcessBackend:
        return make_backend("process", _specs(config, num_shards, **kwargs))

    def test_blocks_longer_than_a_slot_split_bit_identically(
        self, monkeypatch, config, points
    ):
        # 40-row slots (two 20-point buckets) and a 2-slot ring: a 600-row
        # block crosses 15 slots and the coordinator blocks on the ring.
        monkeypatch.setattr(backends_module, "_MIN_SLOT_ROWS", 1)
        monkeypatch.setattr(backends_module, "_QUEUE_DEPTH", 2)
        backend = self._process(config, 1)
        try:
            assert backend._slot_rows == 2 * config.bucket_size
            backend.submit(0, points)
            tree = backend.call("state_dump", {0: None})[0]
        finally:
            backend.close()
        reference = _reference(config, 1)[0]
        reference.insert_batch(points)
        assert_trees_equal(tree, reference.state_dict())

    def test_single_slot_ring_ingests_everything(self, monkeypatch, config, points):
        monkeypatch.setattr(backends_module, "_QUEUE_DEPTH", 1)
        backend = self._process(config, 2)
        try:
            for start in range(0, 600, 25):
                backend.submit((start // 25) % 2, points[start : start + 25])
            counts = backend.call("collect", {0: 4, 1: 4})
        finally:
            backend.close()
        assert counts[0].points_seen + counts[1].points_seen == 600

    def test_slots_hold_at_least_two_buckets(self):
        big = StreamingConfig(k=3, coreset_size=900, n_init=1, seed=1)
        backend = make_backend("process", _specs(big, 1))
        try:
            assert backend._slot_rows == 2 * big.bucket_size
        finally:
            backend.close()

    def test_dimension_change_is_rejected(self, config, points):
        backend = self._process(config)
        try:
            backend.submit(0, points[:10])
            with pytest.raises(ValueError, match="dimension"):
                backend.submit(0, points[:10, :3].copy())
        finally:
            backend.close()

    def test_dtype_change_is_rejected(self, config, points):
        backend = self._process(config)
        try:
            backend.submit(0, points[:10])
            with pytest.raises(ValueError, match="dtype"):
                backend.submit(0, points[:10].astype(np.float32))
        finally:
            backend.close()

    def test_float32_stream_uses_a_float32_ring(self, points):
        config32 = StreamingConfig(
            k=3, coreset_size=20, n_init=1, lloyd_iterations=3, seed=5, dtype="float32"
        )
        block = points[:200].astype(np.float32)
        backend = self._process(config32, 1)
        try:
            backend.submit(0, block)
            assert backend._rings[0].dtype == np.float32
            snapshot = backend.call("collect", {0: 4})[0]
        finally:
            backend.close()
        reference = _reference(config32, 1)[0]
        reference.insert_batch(block)
        assert_snapshots_equal(snapshot, reference.snapshot(4))

    def test_close_unlinks_every_slab(self, config, points):
        from multiprocessing import shared_memory

        backend = self._process(config)
        backend.submit(0, points[:10])
        backend.submit(1, points[10:20])
        names = [ring.name for ring in backend._rings]
        backend.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_leaves_no_live_workers(self, config, points):
        backend = self._process(config, 3)
        backend.submit(2, points[:50])
        backend.call("sync", {0: None, 1: None, 2: None})
        processes = list(backend._processes)
        assert all(process.is_alive() for process in processes)
        backend.close()
        assert not any(process.is_alive() for process in processes)

    def test_killed_worker_fails_the_next_call(self, config, points):
        backend = self._process(config)
        try:
            backend.submit(0, points[:50])
            backend._processes[1].terminate()
            backend._processes[1].join(timeout=10.0)
            with pytest.raises(ShardWorkerError) as info:
                backend.call("sync", {0: None, 1: None})
            assert info.value.shard_index == 1
        finally:
            backend.close()

    def test_killed_worker_fails_a_blocked_submit(self, monkeypatch, config, points):
        monkeypatch.setattr(backends_module, "_QUEUE_DEPTH", 1)
        backend = self._process(config)
        try:
            backend._processes[0].terminate()
            backend._processes[0].join(timeout=10.0)
            with pytest.raises(ShardWorkerError) as info:
                for _ in range(3):  # the second block waits for a free slot
                    backend.submit(0, points[:30])
            assert info.value.shard_index == 0
        finally:
            backend.close()

    def test_worker_error_carries_the_traceback(self, config, points):
        backend = self._process(config, factory=exploding_factory)
        try:
            backend.submit(1, points[:10])
            with pytest.raises(ShardWorkerError) as info:
                backend.call("sync", {0: None, 1: None})
            assert info.value.shard_index == 1
            assert "Traceback" in info.value.detail
            assert "injected insert failure" in info.value.detail
        finally:
            backend.close()

    def test_shards_are_not_exposed(self, config):
        backend = self._process(config)
        try:
            with pytest.raises(RuntimeError, match="worker processes"):
                backend.shards
        finally:
            backend.close()
