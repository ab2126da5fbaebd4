"""Seeded fault storms: every fault kind at once, zero lost batches.

The soak gate of the durable-ingest work: drive a whole stream through a
supervised plane while a seeded :meth:`ChaosSchedule.storm` fires torn
appends, post-append crashes, disk-full snapshots, and checkpoint
corruption — then assert nothing was lost (stream position exact), the
pipeline is LIVE, and the surviving state is bit-identical to a run that
saw no faults at all.  ``REPRO_CHAOS_SEED`` reseeds the storm per CI lane;
``REPRO_SOAK=1`` unlocks the long-running variant.
"""

from __future__ import annotations

import os

import pytest

from repro.resilience import ChaosController, ChaosSchedule, HealthState

from _resilience_utils import (
    assert_states_equal,
    capture_state,
    make_batches,
    make_factory,
    make_supervisor,
    reference_state,
)

#: Every storm here, the sharded one included, uses the in-process fault
#: kinds; kill_worker needs a live process worker to terminate and is fired
#: by tests/resilience/test_worker_loss.py.
SOLO_KINDS = ("crash_before_insert", "torn_wal", "disk_full", "corrupt_checkpoint")


def _storm_run(tmp_path, factory, batches, schedule):
    chaos = ChaosController(schedule=schedule)
    supervisor, plane = make_supervisor(
        tmp_path, factory, chaos=chaos, checkpoint_every_batches=4
    )
    count = chaos.drive(supervisor, batches)
    return supervisor, plane, chaos, count


def test_storm_loses_nothing_and_recovers_bit_identically(tmp_path, chaos_seed):
    factory = make_factory("cc", seed=7)
    batches = make_batches(20, batch_size=60)
    expected = reference_state(factory, batches)
    schedule = ChaosSchedule.storm(chaos_seed, 20, kinds=SOLO_KINDS, num_shards=1)
    assert schedule.faults  # the storm actually scheduled something
    supervisor, plane, chaos, count = _storm_run(tmp_path, factory, batches, schedule)
    try:
        # Zero lost batches: every driven batch is durably applied.
        assert count == 20
        assert supervisor.stats.batches_ingested == 20
        assert plane.points_ingested == sum(b.shape[0] for b in batches)
        assert supervisor.health() is HealthState.LIVE
        assert chaos.fired  # faults really fired
        assert_states_equal(capture_state(plane), expected)
    finally:
        supervisor.close(final_checkpoint=False)
        plane.close()


@pytest.mark.parametrize("offset", [1, 2])
def test_storms_at_neighbouring_seeds(tmp_path, chaos_seed, offset):
    """Different seeds -> different fault mixes, same invariants."""
    factory = make_factory("cc", seed=7)
    batches = make_batches(14, batch_size=60)
    expected = reference_state(factory, batches)
    schedule = ChaosSchedule.storm(
        chaos_seed + offset, 14, kinds=SOLO_KINDS, num_shards=1
    )
    supervisor, plane, chaos, count = _storm_run(tmp_path, factory, batches, schedule)
    try:
        assert count == 14
        assert supervisor.health() is HealthState.LIVE
        assert_states_equal(capture_state(plane), expected)
    finally:
        supervisor.close(final_checkpoint=False)
        plane.close()


def test_storm_is_deterministic(chaos_seed):
    """Same seed, same schedule — the reproducibility contract of the DSL."""
    first = ChaosSchedule.storm(chaos_seed, 20)
    second = ChaosSchedule.storm(chaos_seed, 20)
    assert first == second
    assert ChaosSchedule.storm(chaos_seed + 1, 20) != first


def test_sharded_storm(tmp_path, chaos_seed, backend):
    """The storm against a 2-shard engine on every enabled backend."""
    factory = make_factory(seed=7, shards=2, backend=backend)
    batches = make_batches(12, batch_size=60)
    expected = reference_state(factory, batches)
    schedule = ChaosSchedule.storm(
        chaos_seed, 12, faults_per_kind=1, kinds=SOLO_KINDS, num_shards=2
    )
    chaos = ChaosController(schedule=schedule)
    supervisor, plane = make_supervisor(
        tmp_path, factory, chaos=chaos, checkpoint_every_batches=4
    )
    # Sharded restores must come back on the same backend.
    supervisor._restore_overrides = {"backend": backend}
    try:
        count = chaos.drive(supervisor, batches)
        assert count == 12
        assert supervisor.health() is HealthState.LIVE
        assert plane.points_ingested == sum(b.shape[0] for b in batches)
        assert_states_equal(capture_state(plane), expected)
    finally:
        supervisor.close(final_checkpoint=False)
        plane.close()


@pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak run: set REPRO_SOAK=1 (long storm battery)",
)
def test_soak_many_storms(tmp_path, chaos_seed):
    """Soak: a long stream under repeated dense storms, still bit-identical."""
    rounds = int(os.environ.get("REPRO_SOAK_STORMS", "10"))
    factory = make_factory("cc", seed=7)
    batches = make_batches(40, batch_size=60)
    expected = reference_state(factory, batches)
    for round_index in range(rounds):
        schedule = ChaosSchedule.storm(
            chaos_seed + round_index, 40, faults_per_kind=3,
            kinds=SOLO_KINDS, num_shards=1,
        )
        supervisor, plane, chaos, count = _storm_run(
            tmp_path / f"round-{round_index}", factory, batches, schedule
        )
        try:
            assert count == 40
            assert supervisor.health() is HealthState.LIVE
            assert_states_equal(capture_state(plane), expected)
        finally:
            supervisor.close(final_checkpoint=False)
            plane.close()
