"""API tests for the checkpoint subsystem: format, methods, and integrations.

Covers the on-disk layout (manifest fields, per-shard payload files), the
``snapshot()``/``restore()`` convenience methods, snapshot overwrite
semantics, and the harness/CLI integration (``checkpoint_interval``,
``resume_from``, ``--checkpoint-to``/``--resume-from``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.harness import StreamingExperiment, run_experiment
from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.cli import main
from repro.core.base import StreamingClusterer
from repro.core.driver import CachedCoresetTreeClusterer
from repro.parallel.engine import ShardedEngine
from repro.queries.schedule import FixedIntervalSchedule

from _checkpoint_utils import small_streaming_config


class TestFormat:
    def test_layout_and_manifest_fields(self, tmp_path, checkpoint_stream):
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(3))
        clusterer.insert_batch(checkpoint_stream[:300])
        path = clusterer.snapshot(tmp_path / "ckpt")

        assert (path / "manifest.json").is_file()
        assert (path / "state.npz").is_file()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["algorithm"] == "cc"
        assert manifest["class"] == "CachedCoresetTreeClusterer"
        assert manifest["fingerprint"].startswith("sha256:")
        assert manifest["config"]["streaming"]["k"] == 3
        # RNG states live in the JSON manifest (inspectable without numpy).
        assert "bit_generator" in manifest["state"]["rng"]

    def test_sharded_layout_one_payload_per_shard(self, tmp_path, checkpoint_stream):
        with ShardedEngine(small_streaming_config(3), num_shards=3) as engine:
            engine.insert_batch(checkpoint_stream[:300])
            path = engine.snapshot(tmp_path / "ckpt")
        names = sorted(p.name for p in path.iterdir())
        assert names == [
            "manifest.json",
            "shard-0000.npz",
            "shard-0001.npz",
            "shard-0002.npz",
            "state.npz",
        ]
        manifest = json.loads((path / "manifest.json").read_text())
        assert len(manifest["shards"]) == 3
        assert manifest["runtime"]["backend"] == "serial"
        # The backend is runtime, not config: it must not shift the fingerprint.
        assert "backend" not in manifest["config"]

    def test_snapshot_overwrites_cleanly(self, tmp_path, checkpoint_stream):
        # A 3-shard snapshot overwritten by a single-clusterer snapshot must
        # not leave stale shard payloads behind.
        target = tmp_path / "ckpt"
        with ShardedEngine(small_streaming_config(3), num_shards=3) as engine:
            engine.insert_batch(checkpoint_stream[:300])
            engine.snapshot(target)
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(3))
        clusterer.insert_batch(checkpoint_stream[:300])
        clusterer.snapshot(target)
        assert sorted(p.name for p in target.iterdir()) == ["manifest.json", "state.npz"]
        assert isinstance(load_checkpoint(target), CachedCoresetTreeClusterer)

    def test_restore_from_base_class(self, tmp_path, checkpoint_stream):
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(3))
        clusterer.insert_batch(checkpoint_stream[:300])
        path = clusterer.snapshot(tmp_path / "ckpt")
        restored = StreamingClusterer.restore(path)
        assert isinstance(restored, CachedCoresetTreeClusterer)

    def test_empty_clusterer_roundtrip(self, tmp_path):
        # Snapshotting before the first point must work (cold standby).
        clusterer = CachedCoresetTreeClusterer(small_streaming_config(3))
        restored = load_checkpoint(save_checkpoint(clusterer, tmp_path / "ckpt"))
        assert restored.points_seen == 0
        restored.insert_batch(np.random.default_rng(0).normal(size=(120, 4)))
        assert restored.query().centers.shape == (3, 4)


class TestHarnessIntegration:
    def test_interval_checkpoints_and_resume(self, tmp_path, checkpoint_stream):
        config = small_streaming_config(13)
        schedule = FixedIntervalSchedule(400)
        full = run_experiment(
            StreamingExperiment("cc", config, schedule=schedule), checkpoint_stream
        )
        first = run_experiment(
            StreamingExperiment(
                "cc",
                config,
                schedule=schedule,
                checkpoint_interval=300,
                checkpoint_dir=tmp_path / "steps",
                checkpoint_to=tmp_path / "final",
            ),
            checkpoint_stream[:800],
        )
        assert first.checkpoints, "interval snapshots were not written"
        assert first.checkpoints[-1] == tmp_path / "final"
        # Snapshot time is accounted in its own counter, not as update/query.
        assert first.checkpoint_seconds > 0.0

        resumed = run_experiment(
            StreamingExperiment(
                "cc", config, schedule=schedule, resume_from=tmp_path / "final"
            ),
            checkpoint_stream[800:],
        )
        np.testing.assert_array_equal(resumed.final_centers, full.final_centers)

    def test_resume_with_wrong_config_raises(self, tmp_path, checkpoint_stream):
        config = small_streaming_config(13)
        run_experiment(
            StreamingExperiment(
                "cc",
                config,
                schedule=FixedIntervalSchedule(400),
                checkpoint_to=tmp_path / "final",
            ),
            checkpoint_stream[:800],
        )
        with pytest.raises(CheckpointError, match="different structure configuration"):
            run_experiment(
                StreamingExperiment(
                    "rcc",
                    config,
                    schedule=FixedIntervalSchedule(400),
                    resume_from=tmp_path / "final",
                ),
                checkpoint_stream[800:],
            )

    def test_interval_without_dir_rejected(self, checkpoint_stream):
        with pytest.raises(ValueError, match="set together"):
            run_experiment(
                StreamingExperiment(
                    "cc", small_streaming_config(13), checkpoint_interval=100
                ),
                checkpoint_stream[:200],
            )

    def test_keep_last_prunes_interval_snapshots(self, tmp_path, checkpoint_stream):
        result = run_experiment(
            StreamingExperiment(
                "cc",
                small_streaming_config(13),
                schedule=FixedIntervalSchedule(400),
                checkpoint_interval=200,
                checkpoint_dir=tmp_path,
                checkpoint_keep_last=2,
            ),
            checkpoint_stream[:1000],
        )
        on_disk = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ckpt-"))
        assert len(on_disk) == 2
        # RunResult still records every write, including the pruned ones.
        assert len(result.checkpoints) > 2
        assert sorted(p.name for p in result.checkpoints[-2:]) == on_disk

    def test_keep_last_validation(self, tmp_path, checkpoint_stream):
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            run_experiment(
                StreamingExperiment(
                    "cc", small_streaming_config(13), checkpoint_keep_last=2
                ),
                checkpoint_stream[:200],
            )
        with pytest.raises(ValueError, match=">= 1"):
            run_experiment(
                StreamingExperiment(
                    "cc",
                    small_streaming_config(13),
                    checkpoint_interval=200,
                    checkpoint_dir=tmp_path,
                    checkpoint_keep_last=0,
                ),
                checkpoint_stream[:200],
            )

    def test_sharded_resume(self, tmp_path, checkpoint_stream):
        config = small_streaming_config(13)
        # The schedule restarts relative to the resumed stream, so the split
        # (700) must be a multiple of the interval for the query positions of
        # split+resume to line up with the uninterrupted run.
        schedule = FixedIntervalSchedule(350)
        full = run_experiment(
            StreamingExperiment("cc", config, schedule=schedule, shards=3),
            checkpoint_stream,
        )
        run_experiment(
            StreamingExperiment(
                "cc",
                config,
                schedule=schedule,
                shards=3,
                checkpoint_to=tmp_path / "half",
            ),
            checkpoint_stream[:700],
        )
        resumed = run_experiment(
            StreamingExperiment(
                "cc",
                config,
                schedule=schedule,
                shards=3,
                backend="process",
                resume_from=tmp_path / "half",
            ),
            checkpoint_stream[700:],
        )
        np.testing.assert_array_equal(resumed.final_centers, full.final_centers)


class TestCliIntegration:
    def test_checkpoint_to_then_resume(self, tmp_path, capsys):
        target = tmp_path / "run.ckpt"
        base = [
            "run",
            "--algorithm",
            "cc",
            "--dataset",
            "covtype",
            "--k",
            "4",
            "--num-points",
            "2000",
            "--query-interval",
            "1000",
        ]
        code = main(
            base + ["--checkpoint-to", str(target), "--checkpoint-interval", "800"]
        )
        assert code == 0
        assert (target / "manifest.json").is_file()
        out = capsys.readouterr().out
        assert "Checkpoints written" in out
        # Crash-recovery flow: rerun with the SAME flags from a mid-run
        # snapshot — the already-ingested prefix of the identical regenerated
        # stream is skipped, the remainder is consumed.
        mid = sorted((tmp_path / "run.ckpt.steps").iterdir())[0]
        assert main(base + ["--resume-from", str(mid)]) == 0
        # Resuming from the final snapshot has nothing left to ingest: a
        # clear error, never a silent double-ingestion.
        code = main(base + ["--resume-from", str(target)])
        assert code == 2
        assert "already covers" in capsys.readouterr().err

    def test_resume_with_different_num_points_rejected(self, tmp_path, capsys):
        # Dataset generation is not prefix-consistent across --num-points,
        # so resuming over a "longer" stream must be refused, not spliced.
        target = tmp_path / "run.ckpt"
        base = [
            "run",
            "--algorithm",
            "cc",
            "--dataset",
            "covtype",
            "--k",
            "4",
            "--query-interval",
            "1000",
        ]
        assert main(base + ["--num-points", "2000", "--checkpoint-to", str(target)]) == 0
        capsys.readouterr()
        code = main(base + ["--num-points", "4000", "--resume-from", str(target)])
        assert code == 2
        assert "different stream" in capsys.readouterr().err

    def test_resume_with_mismatched_flags_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "run.ckpt"
        base = [
            "run",
            "--algorithm",
            "cc",
            "--dataset",
            "covtype",
            "--num-points",
            "2000",
            "--query-interval",
            "1000",
        ]
        assert main(base + ["--k", "4", "--checkpoint-to", str(target)]) == 0
        assert main(base + ["--k", "5", "--resume-from", str(target)]) == 2
        assert "different structure configuration" in capsys.readouterr().err

    def test_interval_requires_checkpoint_to(self, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "cc",
                "--num-points",
                "500",
                "--checkpoint-interval",
                "100",
            ]
        )
        assert code == 2
        assert "--checkpoint-to" in capsys.readouterr().err

    def test_non_positive_interval_rejected(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "cc",
                "--num-points",
                "500",
                "--checkpoint-to",
                str(tmp_path / "ck"),
                "--checkpoint-interval",
                "0",
            ]
        )
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_resume_with_different_stream_rejected(self, tmp_path, capsys):
        # The structure fingerprint cannot see the dataset or, for baselines
        # like 'sequential', the stream seed; the annotations must.
        target = tmp_path / "run.ckpt"
        base = [
            "run",
            "--algorithm",
            "sequential",
            "--k",
            "4",
            "--query-interval",
            "1000",
        ]
        assert main(
            base
            + ["--dataset", "covtype", "--seed", "0", "--num-points", "2000",
               "--checkpoint-to", str(target)]
        ) == 0
        capsys.readouterr()
        # Same flags, different stream seed: refused, not silently spliced.
        code = main(
            base
            + ["--dataset", "covtype", "--seed", "7", "--num-points", "4000",
               "--resume-from", str(target)]
        )
        assert code == 2
        assert "different stream" in capsys.readouterr().err
