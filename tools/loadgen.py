"""Replay Poisson/bursty query traffic against a live ingest stream.

Self-contained load harness for the concurrent serving plane: builds a
clusterer, keeps it ingesting in a background writer thread, and fires
simulated clients at it — in-process readers (``--mode plane``) or real TCP
connections against the asyncio server (``--mode tcp``, the default).
Reports p50/p99/p999 latency and snapshot staleness.

Usage::

    PYTHONPATH=src python tools/loadgen.py --clients 50 --seconds 5
    PYTHONPATH=src python tools/loadgen.py --mode plane --readers 4 \
        --rate 500 --burst --seconds 10
    PYTHONPATH=src python tools/loadgen.py --shards 4 --backend process \
        --clients 200 --rate 1000 --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.base import StreamingConfig  # noqa: E402
from repro.core.driver import CachedCoresetTreeClusterer  # noqa: E402
from repro.data.loaders import load_dataset  # noqa: E402
from repro.serving.loadgen import (  # noqa: E402
    IngestLoop,
    LoadgenConfig,
    run_plane_loadgen,
    run_tcp_loadgen,
)
from repro.serving.plane import ServingPlane  # noqa: E402
from repro.serving.server import ServerThread  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("tcp", "plane"), default="tcp")
    parser.add_argument("--clients", type=int, default=100,
                        help="simulated TCP clients (tcp mode)")
    parser.add_argument("--readers", type=int, default=4,
                        help="reader threads (plane mode) / server workers (tcp mode)")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="target total queries/second (0 = closed loop)")
    parser.add_argument("--burst", action="store_true",
                        help="bursty arrivals: alternate 4x rate and rate/4")
    parser.add_argument("--ks", type=int, nargs="+", default=[10, 20, 30],
                        help="k values clients draw from")
    parser.add_argument("--dataset", default="covtype")
    parser.add_argument("--num-points", type=int, default=20_000)
    parser.add_argument("--k", type=int, default=20, help="config k (coreset sizing)")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--backend", choices=("serial", "process"),
                        default="serial")
    parser.add_argument("--batch-size", type=int, default=500,
                        help="writer-plane ingest batch size")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="server admission-queue depth (tcp mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retries", type=int, default=0,
                        help="retry shed (429) queries up to N times with "
                             "full-jitter backoff (tcp mode)")
    parser.add_argument("--retry-backoff", type=float, default=0.02,
                        help="base seconds of the full-jitter retry backoff")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the report as JSON to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    info = load_dataset(args.dataset, num_points=args.num_points, seed=args.seed)
    config = StreamingConfig(k=args.k, seed=args.seed)
    if args.shards > 1:
        clusterer = CachedCoresetTreeClusterer.sharded(
            config, num_shards=args.shards, backend=args.backend
        )
    else:
        clusterer = CachedCoresetTreeClusterer(config)

    cfg = LoadgenConfig(
        seconds=args.seconds,
        rate=args.rate if args.rate > 0 else None,
        ks=tuple(args.ks),
        burst=args.burst,
        seed=args.seed,
        max_retries=args.retries,
        retry_backoff_s=args.retry_backoff,
    )

    with ServingPlane(clusterer) as plane:
        # Warm the plane so the first client never races the first publish.
        plane.ingest(info.points[: args.batch_size].copy())
        ingest = IngestLoop(plane, info.points, batch_size=args.batch_size)
        ingest.start()
        try:
            if args.mode == "plane":
                report = run_plane_loadgen(plane, cfg, readers=args.readers)
            else:
                with ServerThread(
                    plane,
                    num_workers=args.readers,
                    max_pending=args.max_pending,
                ) as server:
                    report = run_tcp_loadgen(
                        "127.0.0.1", server.port, cfg, clients=args.clients
                    )
        finally:
            ingest.stop()

    mode_label = (
        f"{args.clients} clients" if args.mode == "tcp" else f"{args.readers} readers"
    )
    print(
        f"mode={args.mode} ({mode_label}), ingest batches={ingest.batches_ingested}, "
        f"published version={plane.version}"
    )
    print(report.summary())
    if args.json is not None:
        args.json.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if report.served > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
