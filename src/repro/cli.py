"""Command-line interface for running streaming clustering experiments.

Usage examples::

    # Run one algorithm over one dataset with a fixed query interval
    python -m repro.cli run --algorithm cc --dataset covtype --k 20 \
        --num-points 10000 --query-interval 200

    # Crash recovery: snapshot every 2000 points; after a crash, rerun with
    # the SAME flags resuming from the newest interval snapshot — the
    # already-ingested prefix is skipped and the remainder of the identical
    # regenerated stream is consumed (all stream flags must match: datasets
    # are not prefix-consistent across --num-points, so drift is refused)
    python -m repro.cli run --algorithm cc --num-points 10000 \
        --checkpoint-to run.ckpt --checkpoint-interval 2000
    python -m repro.cli run --algorithm cc --num-points 10000 \
        --resume-from run.ckpt.steps/ckpt-0000004000

    # Regenerate one of the paper's figures (reduced scale) and export its data
    python -m repro.cli figure fig4 --dataset power --num-points 6000 \
        --output fig4_power.json

    # Serve a live stream over TCP (newline-delimited JSON; Ctrl-C drains):
    # ingest keeps publishing snapshots while reader workers answer queries
    python -m repro.cli serve --dataset covtype --k 20 --port 8765
    python -m repro.cli serve --resume-from run.ckpt   # restore, then serve

    # List the available datasets and algorithms
    python -m repro.cli list

The CLI is a thin wrapper over :mod:`repro.bench`; everything it does is also
available programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bench.experiments import (
    cost_vs_k,
    drift_adaptation_curve,
    memory_table,
    poisson_queries,
    soft_membership_profile,
    threshold_sweep,
    time_vs_query_interval,
)
from .bench.harness import ALGORITHM_NAMES, StreamingExperiment, run_experiment
from .bench.report import format_nested_series, format_series_table, format_table
from .checkpoint import CheckpointError
from .core.base import StreamingConfig
from .core.registry import default_registry
from .data.loaders import dataset_names, load_dataset
from .data.stress import load_stress_stream, stress_stream_names
from .io.serialization import series_to_json
from .queries.schedule import FixedIntervalSchedule, PoissonSchedule

__all__ = ["main", "build_parser"]

FIGURES = ("fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "table4", "window", "soft")


def _stream_choices() -> list[str]:
    """Table 3 datasets plus the stress streams (drift/expiry scenarios)."""
    return dataset_names() + stress_stream_names()


def _load_stream(name: str, num_points: int, seed: int):
    """Load a Table 3 dataset or a stress stream by name."""
    if name.lower() in stress_stream_names():
        return load_stress_stream(name, num_points=num_points, seed=seed)
    return load_dataset(name, num_points=num_points, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming k-means clustering with fast queries (ICDE 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one algorithm over one dataset")
    run.add_argument("--algorithm", choices=ALGORITHM_NAMES, default="cc")
    run.add_argument("--dataset", choices=_stream_choices(), default="covtype")
    # Per-algorithm option flags (--nesting-depth, --window-buckets,
    # --fuzziness, ...) are generated from the registry's typed options
    # dataclasses; registering a new algorithm adds its flags automatically.
    default_registry().add_cli_flags(run)
    run.add_argument("--k", type=int, default=30)
    run.add_argument("--num-points", type=int, default=10_000)
    run.add_argument("--bucket-size", type=int, default=None)
    run.add_argument("--query-interval", type=int, default=100)
    run.add_argument("--poisson", action="store_true", help="use a Poisson query schedule")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help=(
            "point storage dtype: float32 halves buffer/bucket/slab memory "
            "bandwidth (costs and weights stay float64); float64 is the "
            "bit-compatible default"
        ),
    )
    run.add_argument(
        "--sketch-dim",
        type=int,
        default=None,
        help=(
            "opt-in Johnson-Lindenstrauss sketching: project points to this "
            "many dimensions at ingest and run merge/query inner loops in "
            "the sketched space (reported centers and costs stay exact via "
            "top-2 re-ranking); off by default"
        ),
    )
    run.add_argument(
        "--sketch-kind",
        choices=("gaussian", "countsketch"),
        default="gaussian",
        help="JL transform used with --sketch-dim: dense gaussian or sparse countsketch",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run ct/cc/rcc on the parallel sharded engine with this many shards",
    )
    run.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="executor backend for the sharded engine (with --shards > 1)",
    )
    run.add_argument(
        "--routing",
        choices=("round_robin", "hash", "random"),
        default="round_robin",
        help="shard routing policy (with --shards > 1)",
    )
    run.add_argument(
        "--reshard-at",
        action="append",
        default=None,
        metavar="POINTS:SHARDS",
        help=(
            "live-reshard the sharded engine to SHARDS shards once POINTS "
            "stream points have been ingested (repeatable; requires "
            "--shards > 1)"
        ),
    )
    run.add_argument(
        "--checkpoint-to",
        type=str,
        default=None,
        help="write a final snapshot of the live clusterer to this directory",
    )
    run.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help=(
            "also snapshot mid-run every N ingested points, into "
            "<checkpoint-to>.steps/ (requires --checkpoint-to)"
        ),
    )
    run.add_argument(
        "--checkpoint-keep-last",
        type=int,
        default=None,
        help=(
            "retention for interval snapshots: keep only the newest N under "
            "<checkpoint-to>.steps/ (never pruning the only good one); "
            "default keeps everything"
        ),
    )
    run.add_argument(
        "--resume-from",
        type=str,
        default=None,
        help=(
            "resume from a checkpoint directory instead of starting fresh; "
            "the checkpoint's config fingerprint and stream identity "
            "(--dataset/--seed/--num-points) must match the flags given, and "
            "the first points_seen points of the (deterministically "
            "regenerated) dataset are skipped rather than double-ingested"
        ),
    )

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--dataset", choices=_stream_choices(), default="covtype")
    figure.add_argument("--num-points", type=int, default=6_000)
    figure.add_argument("--k", type=int, default=20)
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--output", type=str, default=None, help="write series data to JSON")

    serve = subparsers.add_parser(
        "serve",
        help="serve concurrent clustering queries over TCP against a live stream",
    )
    serve.add_argument("--dataset", choices=_stream_choices(), default="covtype")
    serve.add_argument("--num-points", type=int, default=20_000)
    serve.add_argument("--k", type=int, default=20)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    serve.add_argument(
        "--workers", type=int, default=2, help="reader workers (one warm engine each)"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission-queue depth; requests beyond it are shed with a 429 error",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="ingest through the parallel sharded engine with this many shards",
    )
    serve.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="executor backend for the sharded ingest plane (with --shards > 1)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=500, help="writer-plane ingest batch size"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="serve for this many seconds then drain and exit (0 = until Ctrl-C)",
    )
    serve.add_argument(
        "--resume-from",
        type=str,
        default=None,
        help=(
            "restore the ingest plane from a checkpoint directory; the restored "
            "stream position is republished before the first query is accepted"
        ),
    )
    serve.add_argument(
        "--checkpoint-to",
        type=str,
        default=None,
        help=(
            "durable mode: journal every accepted batch to a write-ahead log "
            "and rotate retained checkpoints under this directory; a restarted "
            "server resumes from checkpoint + journal replay, bit-identical "
            "(see docs/operations.md, 'Durable ingest')"
        ),
    )
    serve.add_argument(
        "--checkpoint-keep-last",
        type=int,
        default=3,
        help="retained snapshots in durable mode (never prunes the only good one)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=25_000,
        help=(
            "durable mode: checkpoint (and truncate the journal) roughly every "
            "N ingested points"
        ),
    )
    serve.add_argument(
        "--wal-dir",
        type=str,
        default=None,
        help="journal directory for durable mode (default: <checkpoint-to>/wal)",
    )
    serve.add_argument(
        "--fsync-every",
        type=int,
        default=8,
        help=(
            "fsync the journal every N batches (1 = every batch is power-loss "
            "durable, 0 = leave syncing to the OS); the durability/throughput knob"
        ),
    )
    serve.add_argument(
        "--staleness-ceiling",
        type=float,
        default=None,
        help=(
            "degraded-mode bound: answer 503 once the served snapshot is older "
            "than this many seconds (default: serve stale data forever, annotated)"
        ),
    )

    subparsers.add_parser("list", help="list available datasets and algorithms")
    return parser


def _parse_reshard_at(specs: Sequence[str] | None) -> dict[int, int]:
    """Parse repeated ``--reshard-at POINTS:SHARDS`` flags into a schedule."""
    schedule: dict[int, int] = {}
    for spec in specs or ():
        at, sep, target = spec.partition(":")
        try:
            if not sep:
                raise ValueError
            points, shards = int(at), int(target)
        except ValueError:
            raise ValueError(
                f"--reshard-at expects POINTS:SHARDS, got {spec!r}"
            ) from None
        if points <= 0 or shards <= 0:
            raise ValueError(
                f"--reshard-at POINTS and SHARDS must be positive, got {spec!r}"
            )
        schedule[points] = shards
    return schedule


def _command_run(args: argparse.Namespace) -> int:
    if args.checkpoint_interval is not None and args.checkpoint_to is None:
        print("error: --checkpoint-interval requires --checkpoint-to", file=sys.stderr)
        return 2
    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        print("error: --checkpoint-interval must be positive", file=sys.stderr)
        return 2
    if args.checkpoint_keep_last is not None:
        if args.checkpoint_interval is None:
            print(
                "error: --checkpoint-keep-last requires --checkpoint-interval",
                file=sys.stderr,
            )
            return 2
        if args.checkpoint_keep_last < 1:
            print("error: --checkpoint-keep-last must be >= 1", file=sys.stderr)
            return 2
    try:
        reshard_at = _parse_reshard_at(args.reshard_at)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if reshard_at and args.shards <= 1:
        print("error: --reshard-at requires --shards > 1", file=sys.stderr)
        return 2
    info = _load_stream(args.dataset, num_points=args.num_points, seed=args.seed)
    config = StreamingConfig(
        k=args.k,
        coreset_size=args.bucket_size,
        seed=args.seed,
        dtype=args.dtype,
        sketch_dim=args.sketch_dim,
        sketch_kind=args.sketch_kind,
    )
    if args.poisson:
        schedule = PoissonSchedule.from_mean_interval(args.query_interval, seed=args.seed)
    else:
        schedule = FixedIntervalSchedule(args.query_interval)

    checkpoint_dir = None
    if args.checkpoint_interval is not None:
        checkpoint_dir = f"{args.checkpoint_to}.steps"
    try:
        result = run_experiment(
            StreamingExperiment(
                algorithm=args.algorithm,
                config=config,
                schedule=schedule,
                algorithm_options=default_registry().cli_overrides(args.algorithm, args),
                shards=args.shards,
                backend=args.backend,
                routing=args.routing,
                reshard_at=reshard_at or None,
                checkpoint_to=args.checkpoint_to,
                checkpoint_interval=args.checkpoint_interval,
                checkpoint_dir=checkpoint_dir,
                checkpoint_keep_last=args.checkpoint_keep_last,
                resume_from=args.resume_from,
                # Datasets are regenerated deterministically from the seed,
                # so resuming must skip the points the checkpoint already
                # ingested instead of double-ingesting them.  The annotations
                # pin the full stream identity — dataset, seed, AND length
                # (generation is not prefix-consistent across --num-points) —
                # so resuming against any different stream is refused, never
                # spliced.
                resume_skip_ingested=True,
                stream_annotations={
                    "dataset": args.dataset,
                    "stream_seed": args.seed,
                    "num_points": args.num_points,
                },
            ),
            info.points,
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    algorithm_label = args.algorithm
    if args.shards > 1:
        algorithm_label = f"{args.algorithm}x{args.shards}[{args.backend}]"
    rows = [
        {
            "dataset": info.name,
            "algorithm": algorithm_label,
            "k": args.k,
            "points": info.num_points,
            "queries": result.num_queries,
            "update_s": result.timing.update_seconds,
            "query_s": result.timing.query_seconds,
            "total_s": result.timing.total_seconds,
            "final_cost": result.final_cost,
            "stored_points": result.memory.points_stored,
            "memory_mb": result.memory.megabytes,
        }
    ]
    print(format_table(rows, title="Run summary"))
    if result.reshards:
        print("\nReshards:")
        for report in result.reshards:
            print(
                f"  at {report.points_represented} points: "
                f"{report.old_num_shards} -> {report.new_num_shards} shards "
                f"(pause {report.pause_seconds * 1e3:.1f} ms)"
            )
    if result.checkpoints:
        print("\nCheckpoints written:")
        for path in result.checkpoints:
            print(f"  {path}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    info = _load_stream(args.dataset, num_points=args.num_points, seed=args.seed)
    points = info.points
    name = args.name

    if name == "window":
        series = drift_adaptation_curve(points, k=args.k, seed=args.seed)
        print(
            format_series_table(
                series,
                x_label="stream position",
                title=f"Drift adaptation ({info.name}): trailing-window cost",
            )
        )
    elif name == "soft":
        profile = soft_membership_profile(points, k=args.k, seed=args.seed)
        rows = [
            {"fuzziness": fuzziness, **entry}
            for fuzziness, entry in sorted(profile.items())
        ]
        print(format_table(rows, title=f"Soft membership profile ({info.name})"))
        series = {
            metric: {fuzziness: entry[metric] for fuzziness, entry in profile.items()}
            for metric in ("mean_entropy", "mean_max_membership", "hard_cost")
        }
    elif name == "fig4":
        series = cost_vs_k(
            points, k_values=(10, 20, 30), query_interval=200, seed=args.seed
        )
        print(format_series_table(series, x_label="k", title=f"Figure 4 ({info.name})"))
    elif name == "fig5":
        series = time_vs_query_interval(
            points, intervals=(50, 100, 200, 800, 3200), k=args.k, seed=args.seed
        )
        print(
            format_series_table(
                series, x_label="query interval", title=f"Figure 5 ({info.name})"
            )
        )
    elif name in ("fig8", "fig9", "fig10"):
        metric = {"fig8": "update_us", "fig9": "query_us", "fig10": "total_us"}[name]
        nested = poisson_queries(
            points, mean_intervals=(50, 200, 800, 3200), k=args.k, seed=args.seed
        )
        print(
            format_nested_series(
                nested,
                x_label="mean query interval",
                metric=metric,
                title=f"Figure {name[3:]} ({info.name}): {metric}",
            )
        )
        series = {
            algo: {interval: values[metric] for interval, values in mapping.items()}
            for algo, mapping in nested.items()
        }
    elif name == "fig11":
        sweep = threshold_sweep(points, k=args.k, seed=args.seed)
        rows = [{"alpha": alpha, **entry} for alpha, entry in sorted(sweep.items())]
        print(format_table(rows, title=f"Figure 11 ({info.name})"))
        series = {"total_seconds": {alpha: entry["total_seconds"] for alpha, entry in sweep.items()}}
    else:  # table4
        rows = memory_table({info.name: points}, k=args.k, seed=args.seed)
        print(format_table(rows, title="Table 4"))
        series = {
            "points": {key: float(value) for key, value in rows[0].items() if key != "dataset"}
        }

    if args.output:
        path = series_to_json(args.output, series)
        print(f"\nSeries data written to {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .checkpoint.store import CheckpointStore
    from .core.driver import CachedCoresetTreeClusterer
    from .resilience.supervisor import DurableIngestLoop, IngestSupervisor
    from .serving.loadgen import IngestLoop
    from .serving.plane import ServingPlane
    from .serving.server import ServerThread

    if args.fsync_every < 0:
        print("error: --fsync-every must be >= 0", file=sys.stderr)
        return 2
    if args.checkpoint_interval <= 0:
        print("error: --checkpoint-interval must be positive", file=sys.stderr)
        return 2
    durable = args.checkpoint_to is not None
    info = _load_stream(args.dataset, num_points=args.num_points, seed=args.seed)
    config = StreamingConfig(k=args.k, seed=args.seed)

    def build_clusterer():
        if args.shards > 1:
            return CachedCoresetTreeClusterer.sharded(
                config, num_shards=args.shards, backend=args.backend
            )
        return CachedCoresetTreeClusterer(config)

    supervisor = None
    try:
        if args.resume_from is not None:
            plane = ServingPlane.restore(args.resume_from)
        else:
            plane = ServingPlane(build_clusterer())
        if durable:
            wal_dir = args.wal_dir or os.path.join(args.checkpoint_to, "wal")
            supervisor = IngestSupervisor(
                plane,
                CheckpointStore(args.checkpoint_to, keep_last=args.checkpoint_keep_last),
                wal_dir,
                clusterer_factory=None if args.resume_from else build_clusterer,
                checkpoint_every_batches=max(
                    1, args.checkpoint_interval // args.batch_size
                ),
                fsync_every=args.fsync_every,
                annotations={
                    "dataset": args.dataset,
                    "stream_seed": args.seed,
                    "num_points": args.num_points,
                },
            )
            resumed = supervisor.resume()
            if resumed is not None:
                print(
                    f"resumed from {resumed.restored_from or 'journal only'} "
                    f"(+{resumed.replayed_records} journaled batches, "
                    f"{resumed.replayed_points} points) -> "
                    f"position {plane.points_ingested}",
                    flush=True,
                )
        if plane.publisher.latest is None:
            # Publish before accepting connections so the first query never
            # races the first batch.
            first = info.points[: args.batch_size].copy()
            if supervisor is not None:
                supervisor.ingest(first)
            else:
                plane.ingest(first)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with plane:
        if supervisor is not None:
            ingest = DurableIngestLoop(supervisor, info.points, batch_size=args.batch_size)
        else:
            ingest = IngestLoop(plane, info.points, batch_size=args.batch_size)
        ingest.start()
        server = ServerThread(
            plane,
            host=args.host,
            port=args.port,
            num_workers=args.workers,
            max_pending=args.max_pending,
            staleness_ceiling_s=args.staleness_ceiling,
            health_source=(lambda: supervisor.health().value) if supervisor else None,
        )
        # Graceful shutdown on SIGTERM as well as Ctrl-C: drain the server,
        # write a final checkpoint, truncate the journal, exit 0.  Handlers
        # are installed before the ready banner so an operator reacting to
        # the banner can never hit the default (killing) disposition.
        stop_event = threading.Event()
        previous_handlers = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(
                signum, lambda *_: stop_event.set()
            )
        print(
            f"serving on {args.host}:{server.port} "
            f"(workers={args.workers}, max_pending={args.max_pending}"
            + (
                f", durable journal at {wal_dir}, keep_last={args.checkpoint_keep_last}"
                if durable
                else ""
            )
            + "); protocol: newline-delimited JSON, see docs/serving.md",
            flush=True,
        )
        try:
            stop_event.wait(timeout=args.duration if args.duration > 0 else None)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            ingest.stop()
            server.stop(drain=True)
        stats = server.server.stats
        behind, seconds = plane.staleness()
        if supervisor is not None:
            final = supervisor.close(final_checkpoint=True)
            print(
                f"final checkpoint: {final if final is not None else '(none: empty stream)'} "
                f"(recoveries={supervisor.stats.recoveries}, "
                f"checkpoints={supervisor.stats.checkpoints_written})",
                flush=True,
            )
        print(
            f"drained: served={stats.served} shed={stats.shed} "
            f"bad_requests={stats.bad_requests} version={plane.version} "
            f"points={plane.points_ingested} staleness={behind}pts/{seconds * 1e3:.1f}ms",
            flush=True,
        )
    return 0


def _command_list(_: argparse.Namespace) -> int:
    print("Datasets  :", ", ".join(dataset_names()))
    print("Stress    :", ", ".join(stress_stream_names()))
    print("Algorithms:", ", ".join(ALGORITHM_NAMES))
    print("Figures   :", ", ".join(FIGURES))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "serve":
        return _command_serve(args)
    return _command_list(args)


if __name__ == "__main__":
    sys.exit(main())
