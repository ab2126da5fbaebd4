"""The on-disk checkpoint container: JSON manifest + npz array payloads.

A checkpoint is a *directory* with a small, inspectable layout::

    <checkpoint>/
        manifest.json       # format version, algorithm, config, fingerprint,
                            # RNG states and all scalar state (human-readable)
        state.npz           # array payload of the coordinator / clusterer
        shard-0000.npz      # sharded engines: one array payload per shard
        shard-0001.npz
        ...

``manifest.json`` is written *last* (via a temp file + atomic rename), so a
crash mid-snapshot can never leave a directory that passes validation: a
checkpoint without a manifest is detected as incomplete and refused with
:class:`CheckpointError`.  Overwrites are staged: the replacement snapshot
is built completely in a temporary sibling directory and swapped in only
once durable, so re-snapshotting to the same path never destroys the
previous good snapshot before the new one exists.

The manifest carries a ``fingerprint`` — a SHA-256 over the canonical JSON of
``{"algorithm", "config"}`` — that (a) detects manifest corruption or
hand-editing on load and (b) lets a resuming process assert that a checkpoint
was produced by the same structure configuration it is about to continue
(``expected_fingerprint``).  Runtime knobs that do not change the maths
(the executor backend) live in the separate ``runtime`` section and are
deliberately *excluded* from the fingerprint, so a snapshot taken on the
process backend restores onto the serial backend unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import zipfile
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "STATE_NAME",
    "CHECKPOINT_PREFIX",
    "CheckpointError",
    "Filesystem",
    "active_filesystem",
    "use_filesystem",
    "config_fingerprint",
    "shard_file_name",
    "write_checkpoint_dir",
    "read_manifest",
    "load_arrays",
    "validate_checkpoint",
    "list_checkpoints",
    "checkpoint_position",
    "latest_good_checkpoint",
    "prune_checkpoints",
    "CheckpointStore",
]

#: Version of the on-disk checkpoint layout.  Bump on incompatible changes;
#: loaders refuse manifests written with any other version.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
STATE_NAME = "state.npz"

#: Directory-name prefix used by rotating checkpoint stores (harness, CLI,
#: supervisor): ``ckpt-<points:010d>`` sorts lexically by stream position.
CHECKPOINT_PREFIX = "ckpt-"


class Filesystem:
    """The file operations checkpoint writes go through — an injection seam.

    Production uses this passthrough implementation.  The chaos harness
    (:mod:`repro.resilience.chaos`) swaps in subclasses that raise
    ``OSError`` (disk-full) or damage bytes after writing (corruption), via
    :func:`use_filesystem` — so fault paths are exercised without
    monkeypatching numpy or the OS.
    """

    def savez(self, path: Path, arrays: dict[str, np.ndarray]) -> None:
        """Write one compressed npz payload."""
        np.savez_compressed(path, **arrays)

    def write_text(self, path: Path, text: str) -> None:
        """Write a small text file (the manifest)."""
        Path(path).write_text(text, encoding="utf-8")

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)


_DEFAULT_FILESYSTEM = Filesystem()
_active_fs: Filesystem = _DEFAULT_FILESYSTEM


def active_filesystem() -> Filesystem:
    """The :class:`Filesystem` checkpoint writes currently go through."""
    return _active_fs


@contextlib.contextmanager
def use_filesystem(fs: Filesystem) -> Iterator[Filesystem]:
    """Swap the active :class:`Filesystem` for the duration of a ``with`` block."""
    global _active_fs
    previous = _active_fs
    _active_fs = fs
    try:
        yield fs
    finally:
        _active_fs = previous


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, validated, or loaded.

    Raised for every failure mode of the checkpoint subsystem — missing or
    truncated files, format-version mismatches, fingerprint mismatches, and
    malformed state — so callers have a single exception to handle and a
    corrupt snapshot can never surface as a crash deep inside numpy or json.
    """


def config_fingerprint(algorithm: str, config: dict) -> str:
    """Stable fingerprint of an algorithm name plus its structure config.

    Canonical (sorted-key, compact) JSON hashed with SHA-256.  Two clusterers
    share a fingerprint exactly when a checkpoint of one is a valid resume
    point for the other.
    """
    canonical = json.dumps(
        {"algorithm": algorithm, "config": config},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_file_name(index: int) -> str:
    """File name of shard ``index``'s array payload inside a checkpoint."""
    return f"shard-{index:04d}.npz"


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    try:
        _active_fs.savez(path, arrays)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint payload {path}: {exc}") from exc


def write_checkpoint_dir(
    path: str | Path,
    *,
    algorithm: str,
    class_name: str,
    config: dict,
    runtime: dict,
    state_skeleton: object,
    state_arrays: dict[str, np.ndarray],
    shard_skeletons: list[object] | None = None,
    shard_arrays: list[dict[str, np.ndarray]] | None = None,
    annotations: dict | None = None,
) -> Path:
    """Write one complete checkpoint directory and return its path.

    Crash safety when overwriting: the new snapshot is built *completely* in
    a temporary sibling directory (its own manifest written last), and only
    then swapped into place — so a pre-existing snapshot at ``path`` stays
    intact and loadable until the replacement is fully durable.  A crash
    mid-build leaves the old snapshot untouched plus a ``.tmp-*`` directory
    to garbage-collect; the only way to observe no valid snapshot is a crash
    inside the final pair of renames (microseconds), and even then the old
    one survives under ``<path>.old-<pid>``.
    """
    target = Path(path)
    if target.exists() and not target.is_dir():
        raise CheckpointError(f"checkpoint path {target} exists and is not a directory")
    target.parent.mkdir(parents=True, exist_ok=True)

    staging = target.parent / f"{target.name}.tmp-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        _write_npz(staging / STATE_NAME, state_arrays)
        shard_skeletons = shard_skeletons or []
        shard_arrays = shard_arrays or []
        for index, arrays in enumerate(shard_arrays):
            _write_npz(staging / shard_file_name(index), arrays)

        manifest = {
            "format_version": FORMAT_VERSION,
            "algorithm": algorithm,
            "class": class_name,
            "fingerprint": config_fingerprint(algorithm, config),
            "config": config,
            "runtime": runtime,
            "state": state_skeleton,
        }
        if shard_skeletons:
            manifest["shards"] = shard_skeletons
        if annotations:
            manifest["annotations"] = dict(annotations)
        tmp_manifest = staging / (MANIFEST_NAME + ".tmp")
        _active_fs.write_text(
            tmp_manifest, json.dumps(manifest, indent=2, sort_keys=True)
        )
        _active_fs.replace(tmp_manifest, staging / MANIFEST_NAME)
        retired = target.parent / f"{target.name}.old-{os.getpid()}"
        if retired.exists():
            shutil.rmtree(retired)
    except CheckpointError:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    except (OSError, TypeError, ValueError) as exc:
        # TypeError/ValueError: unserialisable manifest content (e.g. exotic
        # annotation values) from json.dumps.
        shutil.rmtree(staging, ignore_errors=True)
        raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc

    # Swap the finished snapshot into place.  Failures here must never
    # destroy the only complete snapshot: if the final rename fails after
    # the old snapshot was moved aside, roll the old one back and leave the
    # fully-built staging directory on disk for manual recovery.
    try:
        if target.exists():
            os.rename(target, retired)
        try:
            os.rename(staging, target)
        except OSError:
            if retired.exists():
                os.rename(retired, target)
            raise
    except OSError as exc:
        raise CheckpointError(
            f"cannot activate checkpoint {target}: {exc} "
            f"(the complete snapshot was left at {staging})"
        ) from exc
    if retired.exists():
        shutil.rmtree(retired, ignore_errors=True)
    return target


def read_manifest(path: str | Path) -> dict:
    """Read and validate a checkpoint manifest.

    Validates presence, JSON well-formedness, the format version, and that
    the stored fingerprint matches the stored algorithm + config (detecting
    corruption or hand-editing of the manifest).
    """
    target = Path(path)
    manifest_path = target / MANIFEST_NAME
    if not target.is_dir() or not manifest_path.is_file():
        raise CheckpointError(
            f"{target} is not a checkpoint directory (missing {MANIFEST_NAME}; "
            "the snapshot may be incomplete or the path wrong)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot parse {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} does not contain a manifest object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    for key in ("algorithm", "config", "fingerprint", "state"):
        if key not in manifest:
            raise CheckpointError(f"checkpoint manifest is missing the {key!r} field")
    expected = config_fingerprint(manifest["algorithm"], manifest["config"])
    if manifest["fingerprint"] != expected:
        raise CheckpointError(
            "checkpoint fingerprint does not match its manifest contents "
            "(the manifest was modified or corrupted)"
        )
    return manifest


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Load one npz array payload, mapping corruption to :class:`CheckpointError`."""
    target = Path(path)
    if not target.is_file():
        raise CheckpointError(f"checkpoint payload {target} is missing")
    try:
        with np.load(target, allow_pickle=False) as payload:
            return {key: payload[key] for key in payload.files}
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError, KeyError, EOFError) as exc:
        raise CheckpointError(
            f"checkpoint payload {target} is truncated or corrupt: {exc}"
        ) from exc


def validate_checkpoint(path: str | Path) -> dict:
    """Fully validate one checkpoint directory and return its manifest.

    Beyond :func:`read_manifest` (presence, version, fingerprint), this
    decompresses every array payload — the zip container's per-entry CRC32
    check runs during decompression, so a payload with even a single flipped
    byte raises :class:`CheckpointError` here rather than producing silently
    wrong coresets after a restore.
    """
    target = Path(path)
    manifest = read_manifest(target)
    load_arrays(target / STATE_NAME)
    for index in range(len(manifest.get("shards") or [])):
        load_arrays(target / shard_file_name(index))
    return manifest


def checkpoint_position(path: str | Path) -> int:
    """Stream position encoded in a rotating-store snapshot's directory name."""
    name = Path(path).name
    if not name.startswith(CHECKPOINT_PREFIX):
        raise CheckpointError(f"{name!r} is not a rotating-store checkpoint name")
    try:
        return int(name[len(CHECKPOINT_PREFIX):])
    except ValueError as exc:
        raise CheckpointError(f"{name!r} carries no stream position") from exc


def list_checkpoints(root: str | Path) -> list[Path]:
    """Rotating-store snapshot directories under ``root``, oldest first.

    Only ``ckpt-*`` directories count; staging/retired leftovers
    (``*.tmp-*`` / ``*.old-*``) from an interrupted write are ignored.
    """
    base = Path(root)
    if not base.is_dir():
        return []
    return sorted(
        entry
        for entry in base.iterdir()
        if entry.is_dir()
        and entry.name.startswith(CHECKPOINT_PREFIX)
        and ".tmp-" not in entry.name
        and ".old-" not in entry.name
    )


def latest_good_checkpoint(
    root: str | Path, *, expected_fingerprint: str | None = None
) -> Path | None:
    """Newest snapshot under ``root`` that passes full validation.

    Walks from newest to oldest, skipping snapshots that fail
    :func:`validate_checkpoint` (truncated payloads, fingerprint-invalid
    manifests) or that carry the wrong structure fingerprint — the automatic
    fallback past a snapshot corrupted by a crash or bad disk.  Returns
    ``None`` when no good snapshot exists.
    """
    for candidate in reversed(list_checkpoints(root)):
        try:
            manifest = validate_checkpoint(candidate)
        except CheckpointError:
            continue
        if (
            expected_fingerprint is not None
            and manifest["fingerprint"] != expected_fingerprint
        ):
            continue
        return candidate
    return None


def prune_checkpoints(root: str | Path, keep_last: int) -> list[Path]:
    """Delete the oldest snapshots under ``root``, retaining ``keep_last``.

    Retention never makes recovery worse: if none of the ``keep_last``
    newest snapshots validates (e.g. the latest write was torn by a crash),
    the newest *good* snapshot among the prune candidates is spared — the
    store never deletes the only restorable state.  Returns the paths that
    were deleted.
    """
    if keep_last < 1:
        raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
    snapshots = list_checkpoints(root)
    if len(snapshots) <= keep_last:
        return []
    doomed = snapshots[:-keep_last]
    retained = snapshots[-keep_last:]

    def _is_good(path: Path) -> bool:
        try:
            validate_checkpoint(path)
        except CheckpointError:
            return False
        return True

    if not any(_is_good(path) for path in retained):
        for path in reversed(doomed):
            if _is_good(path):
                doomed = [p for p in doomed if p != path]
                break
    deleted: list[Path] = []
    for path in doomed:
        try:
            shutil.rmtree(path)
        except OSError as exc:
            raise CheckpointError(f"cannot prune checkpoint {path}: {exc}") from exc
        deleted.append(path)
    return deleted


class CheckpointStore:
    """A rotating checkpoint directory: ``<root>/ckpt-<points:010d>`` + retention.

    The durability substrate the supervisor and ``repro serve`` build on:
    each :meth:`save` writes a position-named snapshot and prunes beyond
    ``keep_last``; :meth:`latest_good` restores past a corrupt newest
    snapshot automatically.  Plain functions (:func:`latest_good_checkpoint`
    etc.) remain available for one-off use.
    """

    def __init__(self, root: str | Path, *, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
        self.root = Path(root)
        self.keep_last = keep_last

    def path_for(self, points_seen: int) -> Path:
        """Directory a snapshot at stream position ``points_seen`` lives in."""
        return self.root / f"{CHECKPOINT_PREFIX}{points_seen:010d}"

    def list(self) -> list[Path]:
        """Snapshots currently on disk, oldest first."""
        return list_checkpoints(self.root)

    def save(
        self,
        clusterer: object,
        points_seen: int,
        annotations: dict | None = None,
    ) -> Path:
        """Snapshot ``clusterer`` at ``points_seen`` and apply retention."""
        from . import save_checkpoint  # deferred: store is imported by the package

        path = save_checkpoint(clusterer, self.path_for(points_seen), annotations)
        prune_checkpoints(self.root, self.keep_last)
        return path

    def latest_good(self, *, expected_fingerprint: str | None = None) -> Path | None:
        """Newest fully-valid snapshot, or ``None`` (see :func:`latest_good_checkpoint`)."""
        return latest_good_checkpoint(
            self.root, expected_fingerprint=expected_fingerprint
        )
