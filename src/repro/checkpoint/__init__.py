"""Checkpoint/restore for live streaming-clusterer state.

The paper's structures summarise unbounded streams into compact
merge-and-reduce state — exactly the object worth persisting.  This package
snapshots a *live* clusterer (tree levels, bucket buffers, coreset caches,
warm-start serving state, and every random-generator stream) into a
versioned on-disk format and restores it so that continued ingestion is
**bit-identical** to a process that never stopped.

Public API::

    from repro.checkpoint import save_checkpoint, load_checkpoint

    save_checkpoint(clusterer, "run.ckpt")          # or clusterer.snapshot(path)
    clusterer = load_checkpoint("run.ckpt")         # or Class.restore(path)

Every :class:`~repro.core.base.StreamingClusterer` also exposes
``snapshot(path)`` / ``Class.restore(path)`` convenience methods that call
into this package.  See :mod:`repro.checkpoint.store` for the on-disk layout
and ``docs/operations.md`` for resume semantics and the crash-recovery
runbook.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .registry import registered_classes, resolve_class
from .state import pack_state, rng_from_state, rng_state, unpack_state
from .store import (
    CHECKPOINT_PREFIX,
    FORMAT_VERSION,
    MANIFEST_NAME,
    STATE_NAME,
    CheckpointError,
    CheckpointStore,
    Filesystem,
    active_filesystem,
    config_fingerprint,
    latest_good_checkpoint,
    list_checkpoints,
    load_arrays,
    prune_checkpoints,
    read_manifest,
    shard_file_name,
    use_filesystem,
    validate_checkpoint,
    write_checkpoint_dir,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.base import StreamingClusterer

__all__ = [
    "CHECKPOINT_PREFIX",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "STATE_NAME",
    "CheckpointError",
    "CheckpointStore",
    "Filesystem",
    "active_filesystem",
    "use_filesystem",
    "validate_checkpoint",
    "list_checkpoints",
    "latest_good_checkpoint",
    "prune_checkpoints",
    "config_fingerprint",
    "checkpoint_fingerprint",
    "fingerprint_for",
    "save_checkpoint",
    "load_checkpoint",
    "read_manifest",
    "registered_classes",
    # re-exports for state-codec implementers
    "pack_state",
    "unpack_state",
    "rng_state",
    "rng_from_state",
    "resolve_class",
    "load_arrays",
    "shard_file_name",
    "write_checkpoint_dir",
]


def fingerprint_for(clusterer: "StreamingClusterer") -> str:
    """The fingerprint a snapshot of ``clusterer`` would carry.

    Useful before resuming: compute the fingerprint of the configuration you
    are about to run and pass it to :func:`load_checkpoint` as
    ``expected_fingerprint`` to fail fast on configuration drift.
    """
    name = type(clusterer).checkpoint_name
    if name is None:
        raise CheckpointError(
            f"{type(clusterer).__name__} does not support checkpointing"
        )
    return config_fingerprint(name, clusterer._config_tree())


def checkpoint_fingerprint(path: str | Path) -> str:
    """Fingerprint stored in the checkpoint at ``path`` (validates the manifest)."""
    return read_manifest(path)["fingerprint"]


def save_checkpoint(
    clusterer: "StreamingClusterer",
    path: str | Path,
    annotations: dict | None = None,
) -> Path:
    """Snapshot a live clusterer into a checkpoint directory at ``path``.

    Parallel engines are quiesced first (every queued insert is applied
    before shard state is captured), so the snapshot is a consistent cut of
    the stream.  Returns the checkpoint directory path.

    ``annotations`` is an optional flat dict of JSON scalars describing the
    *stream* this state summarises (e.g. dataset name, generator seed) —
    things the structure-config fingerprint deliberately does not cover.  It
    is stored in the manifest and can be asserted at load time via
    ``load_checkpoint(..., expected_annotations=...)``.
    """
    name = type(clusterer).checkpoint_name
    if name is None:
        raise CheckpointError(
            f"{type(clusterer).__name__} does not support checkpointing"
        )
    if annotations is not None:
        for key, value in annotations.items():
            if not isinstance(key, str) or not (
                value is None or isinstance(value, (bool, int, float, str))
            ):
                raise CheckpointError(
                    "annotations must map str keys to JSON scalars; "
                    f"got {key!r} -> {type(value).__name__}"
                )
    state_skeleton, state_arrays = pack_state(clusterer._state_tree())
    shard_trees = clusterer._shard_trees()
    shard_skeletons: list[object] | None = None
    shard_arrays: list[dict] | None = None
    if shard_trees is not None:
        shard_skeletons, shard_arrays = [], []
        for tree in shard_trees:
            skeleton, arrays = pack_state(tree)
            shard_skeletons.append(skeleton)
            shard_arrays.append(arrays)
    return write_checkpoint_dir(
        path,
        algorithm=name,
        class_name=type(clusterer).__name__,
        config=clusterer._config_tree(),
        runtime=clusterer._runtime_tree(),
        state_skeleton=state_skeleton,
        state_arrays=state_arrays,
        shard_skeletons=shard_skeletons,
        shard_arrays=shard_arrays,
        annotations=annotations,
    )


def load_checkpoint(
    path: str | Path,
    expected_fingerprint: str | None = None,
    expected_annotations: dict | None = None,
    **overrides,
) -> "StreamingClusterer":
    """Restore a clusterer from a checkpoint directory.

    Parameters
    ----------
    path:
        Checkpoint directory written by :func:`save_checkpoint`.
    expected_fingerprint:
        When given, the checkpoint's structure-config fingerprint must match
        exactly; a mismatch raises :class:`CheckpointError` *before* any
        state is loaded (the resume-safety check — see :func:`fingerprint_for`).
    expected_annotations:
        When given, every key must be present in the checkpoint's stored
        annotations with an equal value — the stream-identity check (dataset
        name, generator seed, ...) complementing the structure fingerprint.
        A checkpoint written without the expected annotation is refused.
    overrides:
        Runtime overrides forwarded to the restoring class.  The sharded
        engine accepts ``backend=`` (restore a process-backend snapshot onto
        the serial backend and vice versa).

    Raises
    ------
    CheckpointError
        On missing/truncated/corrupt files, unsupported format versions,
        fingerprint/annotation mismatches, or malformed state — never a
        bare crash.
    """
    target = Path(path)
    manifest = read_manifest(target)
    if expected_fingerprint is not None and manifest["fingerprint"] != expected_fingerprint:
        raise CheckpointError(
            "checkpoint was written with a different structure configuration "
            f"(stored fingerprint {manifest['fingerprint']}, "
            f"expected {expected_fingerprint})"
        )
    if expected_annotations:
        stored = manifest.get("annotations") or {}
        for key, value in expected_annotations.items():
            if key not in stored:
                raise CheckpointError(
                    f"checkpoint carries no {key!r} annotation; it was not "
                    "written for this stream (re-snapshot with annotations "
                    "or resume without the check)"
                )
            if stored[key] != value:
                raise CheckpointError(
                    f"checkpoint was written for a different stream: "
                    f"annotation {key!r} is {stored[key]!r}, expected {value!r}"
                )
    cls = resolve_class(manifest["algorithm"])
    state = unpack_state(manifest["state"], load_arrays(target / STATE_NAME))
    shard_skeletons = manifest.get("shards")
    shards = None
    if shard_skeletons is not None:
        shards = [
            unpack_state(skeleton, load_arrays(target / shard_file_name(index)))
            for index, skeleton in enumerate(shard_skeletons)
        ]
    try:
        return cls._from_checkpoint(manifest, state, shards, **overrides)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CheckpointError(f"checkpoint state is malformed: {exc}") from exc
