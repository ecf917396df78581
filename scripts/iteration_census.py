#!/usr/bin/env python3
"""Census of local-search improvement steps against instance size.

Samples seeded all-negative instances over a grid of vertex counts, runs the
factor-2 local search from the all-1 start, and tabulates how the number of
reassignment steps compares with the vertex count.  The theory bounds steps
by the improvement argument only; in practice they rarely exceed |V|, and
this script measures how rare that is.

Usage:
    python3 scripts/iteration_census.py --trials 50 --seed 7
"""

import argparse
from fractions import Fraction

from gugp_workbench import GenSpec, SplitMix64, fmt_fraction, generate, local_search_half


def census(trials: int, seed: int, max_n: int, max_m: int, max_k: int):
    sizes = SplitMix64(seed)
    rows = []
    for n in range(2, max_n + 1):
        steps = []
        exceed = 0
        for trial in range(trials):
            m = 1 + sizes.below(max_m)
            k = 2 + sizes.below(max_k - 1)
            spec = GenSpec(
                "random-gugp",
                seed=seed * 100_000 + n * 1_000 + trial,
                n=n,
                m=m,
                k=k,
                nwa=True,
            )
            result = local_search_half(generate(spec).instance)
            steps.append(result.visited)
            if result.visited > n:
                exceed += 1
        rows.append((n, max(steps), Fraction(sum(steps), len(steps)), exceed))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50, help="runs per vertex count")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-n", type=int, default=9)
    parser.add_argument("--max-m", type=int, default=20)
    parser.add_argument("--max-k", type=int, default=4)
    args = parser.parse_args(argv)

    print(f"# trials per n: {args.trials}, seed: {args.seed}")
    print(f"{'n':>3} {'max steps':>10} {'mean steps':>12} {'runs > n':>9}")
    total_exceed = 0
    for n, worst, mean, exceed in census(
        args.trials, args.seed, args.max_n, args.max_m, args.max_k
    ):
        total_exceed += exceed
        print(f"{n:>3} {worst:>10} {fmt_fraction(mean):>12} {exceed:>9}")
    print(f"# runs exceeding their vertex count: {total_exceed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
