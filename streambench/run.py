"""Run one workload of the streaming k-means benchmark and print its metrics.

    python3 streambench/run.py --workload paper-q100 --seed 1 --seconds 12 --trace 0

Run it from the root of the repository; it imports the package from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it holds the run's details: operation counts
by kind, sample counts, the percentile behind each tail metric and, for a
traced run, its end-to-end values (see ``overhead.py``).

Journal and checkpoint files live in a private directory under
``.bench_build/`` that is deleted at exit.  Spans of a traced run are
written only when ``--spans-out PATH`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("stream_pts_s", "pts/s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("write_p50_us", "us"),
    ("write_tail_us", "us"),
    ("stored_points", "points"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-q100", "bulk-ingest", "bulk-sharded", "serve-live"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, help="write the traced run's spans here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"streambench: no package at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # OpenBLAS threads spin while they wait for work; on a 2-core box they
    # take the second core from the load generator and from the server's
    # other threads.  One BLAS thread keeps the timings about the program.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import repro  # noqa: F401 - the tracer wraps loaded modules
    from common import cores_kept_awake, stop_resource_tracker
    from layers import PER_LAYER, layer_metrics
    from tracing import Tracer, install
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="streambench-", dir=ROOT / ".bench_build"))
    try:
        with cores_kept_awake():
            outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer, scratch)
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    end_to_end = outcome.end_to_end()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": dict(outcome.attempted),
        "failed": dict(outcome.failed),
        "problems": outcome.problems,
        "query_samples_fewest_in_a_window": outcome.windows.smallest(outcome.windows.query_us),
        "write_samples_fewest_in_a_window": outcome.windows.smallest(outcome.windows.write_us),
        "query_tail_percentile": outcome.query_tail,
        "write_tail_percentile": outcome.write_tail,
        "stream_pts_s_each_window": outcome.windows.rates(),
        "setup_s_each": outcome.setup_s,
        **outcome.detail,
    }
    if tracer is not None:
        detail["end_to_end_traced"] = end_to_end
        metrics = {
            name: {"value": value, "unit": unit}
            for (name, unit), value in zip(
                PER_LAYER, layer_metrics(tracer, outcome.layer_extras).values()
            )
        }
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": int(sum(outcome.attempted.values())),
                "failed": int(sum(outcome.failed.values())),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
