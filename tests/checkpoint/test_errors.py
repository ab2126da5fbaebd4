"""Error-path suite: every invalid checkpoint fails with CheckpointError.

The operational contract: a truncated, tampered, version-skewed, or simply
wrong checkpoint must surface as a clear :class:`CheckpointError` — never a
silent misload and never a bare crash from json/zipfile/numpy internals.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    checkpoint_fingerprint,
    config_fingerprint,
    fingerprint_for,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.driver import CachedCoresetTreeClusterer, CoresetTreeClusterer
from repro.parallel.engine import ShardedEngine

from _checkpoint_utils import small_streaming_config


@pytest.fixture()
def checkpoint(tmp_path, checkpoint_stream):
    """A valid CC checkpoint to corrupt in various ways."""
    clusterer = CachedCoresetTreeClusterer(small_streaming_config(5))
    clusterer.insert_batch(checkpoint_stream[:500])
    clusterer.query()
    return save_checkpoint(clusterer, tmp_path / "ckpt")


def _edit_manifest(path, mutate):
    """Apply ``mutate`` to the manifest dict and re-sign it so the edit is
    reachable past the self-consistency check (unless mutate breaks that too)."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest["fingerprint"] = config_fingerprint(
        manifest["algorithm"], manifest["config"]
    )
    manifest_path.write_text(json.dumps(manifest))


class TestManifestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="not a checkpoint directory"):
            load_checkpoint(tmp_path / "nope")

    def test_missing_manifest(self, checkpoint):
        (checkpoint / "manifest.json").unlink()
        with pytest.raises(CheckpointError, match="missing manifest.json"):
            load_checkpoint(checkpoint)

    def test_corrupt_manifest_json(self, checkpoint):
        (checkpoint / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot parse"):
            load_checkpoint(checkpoint)

    def test_format_version_mismatch(self, checkpoint):
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(checkpoint)

    def test_tampered_manifest_fails_self_check(self, checkpoint):
        # Edit the config WITHOUT re-signing: the stored fingerprint no
        # longer matches the manifest contents.
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["streaming"]["k"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="fingerprint does not match"):
            load_checkpoint(checkpoint)

    def test_unknown_algorithm(self, checkpoint):
        _edit_manifest(checkpoint, lambda m: m.update(algorithm="no-such-algo"))
        with pytest.raises(CheckpointError, match="unknown to this build"):
            load_checkpoint(checkpoint)

    def test_missing_state_field(self, checkpoint):
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["state"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="missing the 'state' field"):
            load_checkpoint(checkpoint)


class TestPayloadValidation:
    def test_truncated_payload(self, checkpoint):
        payload = checkpoint / "state.npz"
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(checkpoint)

    def test_missing_payload(self, checkpoint):
        (checkpoint / "state.npz").unlink()
        with pytest.raises(CheckpointError, match="is missing"):
            load_checkpoint(checkpoint)

    def test_garbage_payload(self, checkpoint):
        (checkpoint / "state.npz").write_bytes(b"definitely not a zip file")
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(checkpoint)

    def test_malformed_state_tree(self, checkpoint):
        # Structurally valid manifest whose state no longer matches the
        # algorithm's expectations: surfaced as CheckpointError, not KeyError.
        _edit_manifest(checkpoint, lambda m: m["state"].pop("structure"))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(checkpoint)

    def test_corrupt_rng_state(self, checkpoint):
        # Regression: an unknown bit-generator name used to escape as a bare
        # AttributeError from numpy instead of CheckpointError.
        _edit_manifest(
            checkpoint,
            lambda m: m["state"]["rng"].update(bit_generator="NotARealBitGen"),
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint)


class TestOverwriteCrashSafety:
    def test_failed_overwrite_keeps_previous_snapshot(
        self, checkpoint, checkpoint_stream, monkeypatch
    ):
        # Regression: overwriting used to delete the old manifest before
        # writing new payloads, so a crash mid-write destroyed the only good
        # snapshot.  Now the replacement is staged in a sibling directory.
        from repro.checkpoint import store

        before = (checkpoint / "manifest.json").read_bytes()

        def exploding_write(path, arrays):
            raise CheckpointError("disk full (simulated)")

        monkeypatch.setattr(store, "_write_npz", exploding_write)
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(5))
        clusterer.insert_batch(checkpoint_stream[:200])
        with pytest.raises(CheckpointError):
            save_checkpoint(clusterer, checkpoint)
        monkeypatch.undo()

        # The original snapshot is untouched and still loads.
        assert (checkpoint / "manifest.json").read_bytes() == before
        restored = load_checkpoint(checkpoint)
        assert restored.points_seen == 500

    def test_overwrite_leaves_no_staging_residue(self, checkpoint, checkpoint_stream):
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(5))
        clusterer.insert_batch(checkpoint_stream[:200])
        save_checkpoint(clusterer, checkpoint)
        residue = [
            p.name
            for p in checkpoint.parent.iterdir()
            if ".tmp-" in p.name or ".old-" in p.name
        ]
        assert residue == []
        assert load_checkpoint(checkpoint).points_seen == 200


class TestFingerprintChecks:
    def test_expected_fingerprint_match(self, checkpoint):
        expected = fingerprint_for(CachedCoresetTreeClusterer(small_streaming_config(5)))
        assert checkpoint_fingerprint(checkpoint) == expected
        restored = load_checkpoint(checkpoint, expected_fingerprint=expected)
        assert isinstance(restored, CachedCoresetTreeClusterer)

    def test_wrong_config_fingerprint(self, checkpoint):
        from dataclasses import replace

        wrong_k = replace(small_streaming_config(5), k=7)
        other = fingerprint_for(CachedCoresetTreeClusterer(wrong_k))
        with pytest.raises(CheckpointError, match="different structure configuration"):
            load_checkpoint(checkpoint, expected_fingerprint=other)

    def test_seed_changes_fingerprint(self, checkpoint):
        different_seed = fingerprint_for(
            CachedCoresetTreeClusterer(small_streaming_config(6))
        )
        with pytest.raises(CheckpointError, match="different structure configuration"):
            load_checkpoint(checkpoint, expected_fingerprint=different_seed)

    def test_wrong_algorithm_fingerprint(self, checkpoint):
        ct = fingerprint_for(CoresetTreeClusterer(small_streaming_config(5)))
        with pytest.raises(CheckpointError, match="different structure configuration"):
            load_checkpoint(checkpoint, expected_fingerprint=ct)

    def test_non_scalar_annotations_rejected_cleanly(self, tmp_path, checkpoint_stream):
        # Regression: unserialisable annotations used to escape as a bare
        # TypeError from json and leak the .tmp-<pid> staging directory.
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(5))
        clusterer.insert_batch(checkpoint_stream[:200])
        with pytest.raises(CheckpointError, match="JSON scalars"):
            save_checkpoint(
                clusterer, tmp_path / "bad", annotations={"when": object()}
            )
        assert list(tmp_path.iterdir()) == []

    def test_annotation_mismatch(self, tmp_path, checkpoint_stream):
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(5))
        clusterer.insert_batch(checkpoint_stream[:200])
        path = save_checkpoint(
            clusterer, tmp_path / "ann", annotations={"dataset": "covtype"}
        )
        restored = load_checkpoint(path, expected_annotations={"dataset": "covtype"})
        assert restored.points_seen == 200
        with pytest.raises(CheckpointError, match="different stream"):
            load_checkpoint(path, expected_annotations={"dataset": "power"})
        with pytest.raises(CheckpointError, match="no 'stream_seed' annotation"):
            load_checkpoint(path, expected_annotations={"stream_seed": 3})

    def test_restore_validates_class(self, checkpoint):
        with pytest.raises(CheckpointError, match="not a CoresetTreeClusterer"):
            CoresetTreeClusterer.restore(checkpoint)
        restored = CachedCoresetTreeClusterer.restore(checkpoint)
        assert isinstance(restored, CachedCoresetTreeClusterer)


class TestShardedErrors:
    @pytest.fixture()
    def sharded_checkpoint(self, tmp_path, checkpoint_stream):
        with ShardedEngine(small_streaming_config(5), num_shards=3) as engine:
            engine.insert_batch(checkpoint_stream[:600])
            return save_checkpoint(engine, tmp_path / "sharded")

    def test_missing_shard_payload(self, sharded_checkpoint):
        (sharded_checkpoint / "shard-0001.npz").unlink()
        with pytest.raises(CheckpointError, match="is missing"):
            load_checkpoint(sharded_checkpoint)

    def test_shard_count_mismatch(self, sharded_checkpoint):
        _edit_manifest(
            sharded_checkpoint, lambda m: m["config"].update(num_shards=5)
        )
        with pytest.raises(CheckpointError, match="shard"):
            load_checkpoint(sharded_checkpoint)

    @pytest.mark.parametrize("override", [None, "serial", "process"])
    def test_retired_thread_backend_checkpoint_restores(
        self, tmp_path, checkpoint_stream, override
    ):
        """Checkpoints from releases with a thread backend still restore.

        Their manifests record ``backend: "thread"`` plus the queue knobs
        that were settable then.  Shard state is transport-independent, so
        they restore on the serial reference (or the caller's override) and
        continue bit-identically.
        """
        config = small_streaming_config(5)
        head, tail = checkpoint_stream[:600], checkpoint_stream[600:900]
        with ShardedEngine(config, num_shards=3) as engine:
            engine.insert_batch(head)
            path = save_checkpoint(engine, tmp_path / "legacy")
            engine.insert_batch(tail)
            expected = engine.query().centers
        _edit_manifest(
            path,
            lambda m: m["runtime"].update(
                backend="thread", queue_depth=8, slot_rows=1024, start_method=None
            ),
        )
        overrides = {} if override is None else {"backend": override}
        restored = load_checkpoint(path, **overrides)
        try:
            assert restored.backend_name == (override or "serial")
            restored.insert_batch(tail)
            np.testing.assert_array_equal(restored.query().centers, expected)
        finally:
            restored.close()

    def test_unknown_override_rejected(self, sharded_checkpoint):
        with pytest.raises(CheckpointError, match="backend"):
            load_checkpoint(sharded_checkpoint, bogus_option=True)

    def test_single_clusterer_rejects_overrides(self, checkpoint):
        with pytest.raises(CheckpointError, match="no restore overrides"):
            load_checkpoint(checkpoint, backend="process")

    def test_class_mismatch_restore_closes_engine(self, sharded_checkpoint):
        # Regression: restore() used to leak the fully constructed engine
        # (live worker processes) when the class check failed.
        import multiprocessing

        before = set(multiprocessing.active_children())
        with pytest.raises(CheckpointError, match="not a CoresetTreeClusterer"):
            CoresetTreeClusterer.restore(sharded_checkpoint, backend="process")
        assert set(multiprocessing.active_children()) <= before
