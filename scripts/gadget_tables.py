#!/usr/bin/env python3
"""Metric tables for both gadget families, read off built gadgets.

For every parameter in range this builds a single-source-edge gadget and
prints its bundle's first and last edge weights, its negative/positive
ratio and its total weight per source edge.  Every gadget must pass
``check_gadget_metrics``, which holds it to the one metrics rule in
(k, d), or the script raises, so a clean run doubles as a verification
sweep.

Usage:
    python3 scripts/gadget_tables.py --max-fold 4 --max-half 5
"""

import argparse
from fractions import Fraction

from gugp_workbench import (
    Permutation,
    T22Edge,
    TwoToTwoInstance,
    check_gadget_metrics,
    fmt_fraction,
    metrics,
    pwt1_gadget,
    repeat_max3cut,
    two2two_to_pwt_half,
)


def row(gadget, family: str, param: int, source_edges: int) -> tuple:
    """The bundle size, the first and last edge weights, the ratio and the
    sigma per source edge of a gadget that passes its metrics check."""
    report = check_gadget_metrics(gadget, family, param, source_edges)
    if report.verdict != "PASS":
        raise AssertionError(f"{family} metrics rule mismatch at {param}")
    got = metrics(gadget)
    first, last = gadget.edges[0].weight, gadget.edges[-1].weight
    cells = (first, last, got.ratio, got.sigma / source_edges)
    return (param, gadget.k, *map(fmt_fraction, cells))


def shift_rows(max_fold: int):
    for fold in range(1, max_fold + 1):
        repeated = repeat_max3cut(2, ((0, 1),), fold)
        gadget, _ = pwt1_gadget(repeated)
        yield row(gadget, "pwt1", fold, len(repeated.edges))


def pair_rows(max_half: int):
    for k in range(2, max_half + 1):
        identity = Permutation.identity(2 * k)
        source = TwoToTwoInstance(
            2, k, (T22Edge(0, 1, Fraction(1), identity, identity),)
        )
        gadget, _ = two2two_to_pwt_half(source)
        yield row(gadget, "pwt-half", k, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-fold", type=int, default=4)
    parser.add_argument("--max-half", type=int, default=5)
    args = parser.parse_args(argv)

    print("shift gadgets (3-cut repetition; one row per fold)")
    print(
        f"{'fold':>4} {'bundle size':>11} {'w_shift-hit':>12} {'w_clean':>8}"
        f" {'ratio':>7} {'sigma/edge':>10}"
    )
    for row in shift_rows(args.max_fold):
        print(f"{row[0]:>4} {row[1]:>11} {row[2]:>12} {row[3]:>8} {row[4]:>7} {row[5]:>10}")

    print()
    print("pair-block gadgets (one row per half-size k)")
    print(
        f"{'k':>4} {'bundle size':>11} {'w_first-two':>12} {'w_rest':>8}"
        f" {'ratio':>7} {'sigma/edge':>10}"
    )
    for row in pair_rows(args.max_half):
        print(f"{row[0]:>4} {row[1]:>11} {row[2]:>12} {row[3]:>8} {row[4]:>7} {row[5]:>10}")

    print()
    print("all rows re-derived from concretely built gadgets: exact match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
