"""Tracing overhead: traced against untraced medians of each end-to-end metric.

    python3 streambench/overhead.py --workload paper-q100 --seeds 1 2 3 --seconds 20

Runs ``run.py`` once per seed with ``--trace 0`` and once with ``--trace 1``,
alternating which goes first, and prints per metric the two medians, their
difference and the difference as a share of the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    completed = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}, trace {trace}: the run was not clean: {lines[-2]}")
    if trace:
        return json.loads(lines[-2])["detail"]["end_to_end_traced"]
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    runs: dict[int, list[dict[str, float]]] = {0: [], 1: []}
    for index, seed in enumerate(args.seeds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for trace in order:
            runs[trace].append(run_once(args.workload, seed, args.seconds, trace))

    report = {}
    for name in runs[0][0]:
        untraced = statistics.median(run[name] for run in runs[0])
        traced = statistics.median(run[name] for run in runs[1])
        report[name] = {
            "untraced": untraced,
            "traced": traced,
            "difference": traced - untraced,
            "share": (traced - untraced) / untraced if untraced else 0.0,
        }
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "overhead": report}))


if __name__ == "__main__":
    main()
