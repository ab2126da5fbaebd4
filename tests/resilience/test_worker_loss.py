"""Losing a process-backend shard worker: the supervisor rebuilds, nothing is lost.

The sharded engine does not restart its own workers.  A killed worker
surfaces as :class:`~repro.parallel.ShardWorkerError` at the engine's next
insert or publish, and :class:`~repro.resilience.IngestSupervisor` treats it
like any other writer death: restore the newest good checkpoint, replay the
journal, carry on.  This battery fires :meth:`ChaosController.kill_worker`
faults at a supervised 2-shard process engine — repeatedly, alternating
shards, each one straight after the previous batch's publish barrier (the
instant a worker may still be inside its reply send), including back-to-back
kills of a freshly rebuilt engine — and demands zero lost batches, a LIVE
pipeline, and state bit-identical to an uninterrupted serial run.

The kill-after-barrier pattern is also the regression guard for per-worker
reply pipes: with one reply queue shared by all workers, a worker terminated
while holding the queue's write lock wedged every other shard's barrier.
"""

from __future__ import annotations

import pytest

import repro.parallel.backends as backends_module
from repro.checkpoint import pack_state
from repro.resilience import ChaosController, ChaosSchedule, Fault, HealthState
from repro.serving.plane import ServingPlane

from _resilience_utils import (
    assert_states_equal,
    capture_state,
    make_batches,
    make_factory,
    make_supervisor,
)
from backend_matrix import enabled_backends

pytestmark = pytest.mark.skipif(
    "process" not in enabled_backends(),
    reason="process backend disabled via REPRO_TEST_BACKENDS",
)

#: (batch, shard) kills: alternating shards; batch 4 follows a checkpoint,
#: batches 5 and 6 hit an engine rebuilt one batch earlier.
KILLS = ((2, 0), (4, 1), (5, 0), (6, 1), (11, 0), (14, 1))


@pytest.fixture(autouse=True)
def short_stall_timeout(monkeypatch):
    """A wedged barrier fails the test in seconds, not after two minutes."""
    monkeypatch.setattr(backends_module, "_STALL_TIMEOUT", 20.0)


def _shard_states(plane):
    return pack_state(plane.clusterer._shard_trees())


def test_killed_workers_recover_bit_identically(tmp_path):
    batches = make_batches(16, batch_size=60)
    with ServingPlane(make_factory("cc", shards=2, backend="serial")()) as reference:
        for batch in batches:
            reference.ingest(batch.copy())
        expected = capture_state(reference)
        expected_shards = _shard_states(reference)

    chaos = ChaosController(
        schedule=ChaosSchedule.of(
            *(Fault(kind="kill_worker", at_batch=at, detail=shard) for at, shard in KILLS)
        )
    )
    supervisor, plane = make_supervisor(
        tmp_path,
        make_factory("cc", shards=2, backend="process"),
        chaos=chaos,
        checkpoint_every_batches=4,
    )

    def kill(shard: int) -> None:
        victim = plane.clusterer._backend._processes[shard]
        victim.terminate()
        victim.join(timeout=10.0)

    chaos.kill_worker = kill
    try:
        count = chaos.drive(supervisor, batches)
        assert count == len(batches)
        assert supervisor.stats.batches_ingested == len(batches)
        assert plane.points_ingested == sum(batch.shape[0] for batch in batches)
        assert chaos.fired == [f"kill_worker@{at}:{shard}" for at, shard in KILLS]
        assert supervisor.stats.recoveries == len(KILLS)
        assert supervisor.health() is HealthState.LIVE
        assert plane.clusterer.backend_name == "process"
        assert_states_equal(capture_state(plane), expected)
        assert_states_equal(_shard_states(plane), expected_shards)
    finally:
        supervisor.close(final_checkpoint=False)
        plane.close()
