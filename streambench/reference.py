"""Regenerate the SciPy reference costs the quality checks compare with.

    python3 streambench/reference.py --seed 1 --ks 10 20 30

Builds the seed's covtype-like stream exactly as the benchmark does, runs
``scipy.cluster.vq.kmeans2(minit="++")`` on its first points (best of a few
restarts) and prints the k-means cost of the reference centers per ``k``.
A checked answer may cost at most ``COST_FACTOR`` times this.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ks", type=int, nargs="+", default=[20])
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from common import COST_FACTOR, REFERENCE_POINTS, reference_costs

    costs = reference_costs(args.seed, tuple(args.ks))
    print(
        json.dumps(
            {
                "seed": args.seed,
                "prefix_points": REFERENCE_POINTS,
                "cost_factor": COST_FACTOR,
                "reference_cost": {str(k): value for k, value in costs.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
