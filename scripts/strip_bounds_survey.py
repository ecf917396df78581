#!/usr/bin/env python3
"""Survey: how often the normalized strip bounds hold on random instances.

Dropping every negative edge from a positive-total instance shifts the
minimum unsatisfied weight by at most the total negative magnitude; that
weight-level sandwich is exact and this survey asserts it on every sample.
The two normalized one-sided bounds (stripped optimum over W+ against
original optimum over sigma) are a different story: the upper one can fail
when the original optimum value is negative.  This script buckets seeded
random instances by their negative/positive ratio and counts failures.

Usage:
    python3 scripts/strip_bounds_survey.py --trials 40 --seed 3
"""

import argparse
from fractions import Fraction

from gugp_workbench import (
    GenSpec,
    SplitMix64,
    check_strip_bounds,
    fmt_fraction,
    generate,
    metrics,
)

BUCKETS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


def note_value(report, key: str) -> str:
    for note in report.notes:
        if note.startswith(key + "="):
            return note.split("=", 1)[1]
    raise KeyError(key)


def survey(trials: int, seed: int):
    sizes = SplitMix64(seed)
    for bound in BUCKETS:
        sandwich_fail = 0
        upper_fail = 0
        lower_fail = 0
        negative_val = 0
        for trial in range(trials):
            spec = GenSpec(
                "random-gugp",
                seed=seed * 1_000_000 + trial,
                n=2 + sizes.below(4),
                m=1 + sizes.below(8),
                k=2 + sizes.below(2),
                max_ratio=bound,
            )
            instance = generate(spec).instance
            report = check_strip_bounds(instance)
            if report.verdict != "PASS":
                sandwich_fail += 1
            if note_value(report, "NORMALIZED_UPPER") == "FAILS":
                upper_fail += 1
            if note_value(report, "NORMALIZED_LOWER") == "FAILS":
                lower_fail += 1
            if note_value(report, "VAL_ORIGINAL").startswith("-"):
                negative_val += 1
            ratio = metrics(instance).ratio
            assert ratio is None or ratio <= bound
        yield bound, sandwich_fail, upper_fail, lower_fail, negative_val


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=40, help="samples per ratio bucket")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    print(f"# {args.trials} samples per bucket, seed {args.seed}")
    print(
        f"{'ratio <=':>9} {'sandwich fails':>15} {'upper fails':>12}"
        f" {'lower fails':>12} {'neg optimum':>12}"
    )
    for bound, sandwich, upper, lower, negative in survey(args.trials, args.seed):
        label = fmt_fraction(bound)
        print(f"{label:>9} {sandwich:>15} {upper:>12} {lower:>12} {negative:>12}")
    print("# the weight-level sandwich is a hard guarantee; any nonzero count")
    print("# in its column is a bug.  The normalized columns are descriptive.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
