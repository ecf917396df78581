"""Exact solvers: exhaustive enumeration and a factor-2 local search.

Every exhaustive scan runs on one kernel, ``_prefix_scan``.  It splits the
vertices into a depth-first prefix and a trailing block: the longest suffix
whose joint label count is at most ``BLOCK_LABELINGS``.  The tables inside
the block are summed once into a vector over the block's labelings in
lexicographic order; the tables from a prefix vertex into the block give one
such vector per label of that vertex.  The prefix is walked depth-first with
one partial sum per depth, and the block vector is carried down the walk: a
prefix vertex with tables into the block adds its label's vector once for
all the leaves below it, so each leaf costs at most one vector add.  Every
one of the k^n labelings is still scored.  Sibling leaves may share one row;
consumers only read the rows.

Brute force is deterministic: it takes the first maximum within a leaf's
vector and lets a later leaf replace the incumbent only when strictly
better.  Leaves come in lexicographic prefix order and vectors in
lexicographic block order, so ties resolve to the lexicographically smallest
optimal labeling, as in a plain lexicographic scan.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    GugpInstance,
    Labeling,
    RelationalInstance,
    capped_power_product,
)
from .errors import (
    CapacityError,
    DegenerateInstanceError,
    InternalError,
)
from .evaluation import (
    Objective,
    Tables,
    labeling_value,
    objective_normalizer,
    pair_tables,
    relational_value,
    require_objective,
)
from .rng import SplitMix64

DEFAULT_BRUTE_CAP = 1_000_000
# Largest joint label count of the trailing block that one row vector scores.
BLOCK_LABELINGS = 243
# Local search keeps four per-vertex lists; the header's n is checked first.
LOCAL_SEARCH_VERTEX_CAP = 100_000


@dataclass(frozen=True)
class SolveResult:
    """A labeling, its objective value, and the work done to find it.

    ``visited`` counts enumerated labelings for brute force and executed
    improvement steps for local search.
    """

    labeling: Labeling
    value: Fraction
    visited: int


# (prefix labels, prefix score, score of each block labeling)
Leaf = tuple[Labeling, int, list[int]]


def _prefix_scan(domains: list[range], *table_sets: Tables) -> tuple:
    """Score every labeling of ``domains`` under each of ``table_sets`` (as
    built by ``pair_tables``), one prefix leaf at a time.

    Returns the block labelings in lexicographic order, then one generator
    per table set of ``(prefix, base, row)`` in lexicographic prefix order:
    labeling ``prefix + block[j]`` scores ``base + row[j]``.  The split and
    the block are laid out once, from the domain sizes alone, so every
    generator yields the same prefixes in the same order and they can be
    zipped; each table set is oriented and summed on its own.

    ``row`` is the block vector carried down the walk, not a fresh list per
    leaf: a prefix vertex without tables into the block hands its own row to
    every child, so sibling leaves may share one list.  Consumers only read
    the rows.
    """
    split, size = len(domains), 1
    while split and size * len(domains[split - 1]) <= BLOCK_LABELINGS:
        split -= 1
        size *= len(domains[split])
    block: list[Labeling] = [()]
    for dom in domains[split:]:
        block = [t + (a,) for t in block for a in dom]
    # column x: the label of vertex x in each block labeling
    columns = dict(zip(range(split, len(domains)), zip(*block)))

    def leaves(tables: Tables) -> Iterator[Leaf]:
        internal: list[Iterator[int]] = []
        # later[x]: (y, table[label of y][label of x]) for prefix tables, y < x
        later: list[list[tuple[int, list[list[int]]]]] = [[] for _ in range(split)]
        # crossing[x][a]: per table from x into the block, its scores at label a
        crossing: dict[int, dict[int, list[Iterator[int]]]] = {}
        for (u, v), table in tables.items():
            if u > v:
                u, v, table = v, u, [list(col) for col in zip(*table)]
            if v < split:
                later[v].append((u, table))
            elif u >= split:
                rows = map(table.__getitem__, columns[u])
                internal.append(map(operator.getitem, rows, columns[v]))
            else:
                by_label = crossing.setdefault(u, {a: [] for a in domains[u]})
                for a, parts in by_label.items():
                    parts.append(map(table[a].__getitem__, columns[v]))
        block_row = list(map(sum, zip(*internal))) if internal else [0] * len(block)
        # cross[x][a]: the block vector of every table from x, at label a
        cross = {
            x: {a: list(map(sum, zip(*parts))) for a, parts in by_label.items()}
            for x, by_label in crossing.items()
        }
        labels = [0] * split

        def walk(x: int, base: int, row: list[int]) -> Iterator[Leaf]:
            """Label vertex x onward; ``base`` scores the labels before x and
            ``row`` the block under them."""
            if x == split:
                yield tuple(labels), base, row
                return
            gain = list(map(sum, zip(*(t[labels[y]] for y, t in later[x]))))
            by_label = cross.get(x)
            for a in domains[x]:
                labels[x] = a
                yield from walk(
                    x + 1,
                    base + gain[a] if gain else base,
                    row
                    if by_label is None
                    else list(map(operator.add, row, by_label[a])),
                )

        return walk(0, 0, block_row)

    return (block, *map(leaves, table_sets))


def _best_labeling(domains: list[range], tables: Tables) -> Labeling:
    """The lexicographically first labeling with the largest total table
    weight: the first maximum of each row, replaced only on strict gains."""
    block, leaves = _prefix_scan(domains, tables)
    best: Labeling | None = None
    best_sat: int | None = None
    for prefix, base, row in leaves:
        top = max(row)
        if best_sat is None or base + top > best_sat:
            best, best_sat = prefix + block[row.index(top)], base + top
    assert best is not None
    return best


def _require_label_space(factors: tuple[tuple[int, int], ...], cap: int) -> int:
    """The label space, a product of ``k**e``; ``CapacityError`` over ``cap``."""
    space = capped_power_product(factors, cap)
    if space is None:
        shown = " * ".join(f"{k}^{e}" for k, e in factors)
        raise CapacityError(f"label space {shown} exceeds cap {cap}")
    return space


def brute_force(
    instance: GugpInstance,
    objective: Objective,
    cap: int = DEFAULT_BRUTE_CAP,
) -> SolveResult:
    """Enumerate all k^n labelings and return the optimum for the objective.

    All six objectives are optimized by the labeling that maximizes the
    signed satisfied weight (the families differ only in normalization and
    in whether the satisfied or unsatisfied share is reported), so a single
    scan direction serves every objective and ties break identically.
    """
    m = require_objective(instance, objective)
    space = _require_label_space(((instance.k, instance.n),), cap)
    objective_normalizer(m, objective)  # a zero normalizer refuses before the scan
    weights = instance.integer_weights[1]
    tables = pair_tables(instance.edges, weights, instance.k, instance.k)
    best = _best_labeling([range(1, instance.k + 1)] * instance.n, tables)
    return SolveResult(best, labeling_value(instance, best, objective), space)


def brute_force_relational(
    instance: RelationalInstance,
    cap: int = DEFAULT_BRUTE_CAP,
) -> SolveResult:
    """Enumerate all labelings and return the maximum satisfied-weight fraction."""
    factors = ((instance.k1, instance.n),)
    if instance.sides is not None:
        left = instance.sides.count("V")
        factors = ((instance.k1, left), (instance.k2, instance.n - left))
    space = _require_label_space(factors, cap)
    if not instance.edges:
        raise DegenerateInstanceError("relational value undefined: no edges")
    domains = [range(1, instance.label_count(v) + 1) for v in range(instance.n)]
    weights = instance.integer_weights[1]
    tables = pair_tables(instance.edges, weights, instance.k1, instance.k2)
    best = _best_labeling(domains, tables)
    return SolveResult(best, relational_value(instance, best), space)


def _hit_rows(image: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows of a permutation and of its inverse, each padded by a leading
    0 so that row[label] is that label's image."""
    inverse = [0] * (len(image) + 1)
    for label, hit in enumerate(image, start=1):
        inverse[hit] = label
    return (0,) + image, tuple(inverse)


def local_search_half(
    instance: GugpInstance,
    seed: int | None = None,
    iteration_cap: int | None = None,
) -> SolveResult:
    """Local search for all-negative instances with a guaranteed value >= 1/2.

    The instance is viewed in restated form: each edge demands
    pi(f(u)) != f(v) and counts with weight |w|.  While some vertex sees less
    than half of its incident restated weight satisfied, the smallest such
    vertex is reassigned to its locally best label different from the current
    one (smallest label on ties).  Every step strictly increases the global
    restated satisfied weight, by at least 1 on integer-scaled weights, so
    their sum bounds the steps (the default ``iteration_cap``).  At
    termination each vertex meets the half threshold locally, hence the
    labeling satisfies at least half of the total restated weight, i.e. its
    max-NWA value is at least 1/2.

    Each edge reads the two hit rows of its permutation, the image and its
    inverse, which are built once per distinct permutation object.

    The returned ``visited`` is the number of reassignment steps.  The start
    is the all-1 labeling, or a seeded uniform labeling when ``seed`` is
    given.  More than ``LOCAL_SEARCH_VERTEX_CAP`` vertices raise
    ``CapacityError`` before any per-vertex list is built.
    """
    if instance.k < 2:
        raise DegenerateInstanceError("local search needs at least two labels")
    m = require_objective(instance, Objective.MAX_NWA)
    objective_normalizer(m, Objective.MAX_NWA)  # an edgeless game refuses here
    n, k = instance.n, instance.k
    if n > LOCAL_SEARCH_VERTEX_CAP:
        raise CapacityError(f"vertex count {n} exceeds cap {LOCAL_SEARCH_VERTEX_CAP}")
    # integer restated weights |w|: require_objective left only negative ones
    weights = [-w for w in instance.integer_weights[1]]
    if iteration_cap is None:
        iteration_cap = sum(weights)

    if seed is None:
        labels = [1] * n
    else:
        stream = SplitMix64(seed)
        labels = [1 + stream.below(k) for _ in range(n)]

    # incident[x] holds (y, hit, w) per edge at x: the edge is unsatisfied
    # in restated form exactly when f(x) = hit[f(y)].  rows is keyed by
    # id(pi), which is safe because the instance holds every permutation for
    # the whole call.
    incident: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
    rows: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for e, w in zip(instance.edges, weights):
        pair = rows.get(id(e.pi))
        if pair is None:
            pair = rows[id(e.pi)] = _hit_rows(e.pi.image)
        incident[e.u].append((e.v, pair[1], w))
        incident[e.v].append((e.u, pair[0], w))
    total = [sum(w for _, _, w in edges) for edges in incident]
    # unsat[x]: restated weight at x left unsatisfied; x is below the half
    # threshold exactly when 2 * unsat[x] > total[x]
    unsat = [
        sum(w for y, hit, w in incident[x] if hit[labels[y]] == labels[x])
        for x in range(n)
    ]

    iterations = 0
    while True:
        mover = next((x for x in range(n) if 2 * unsat[x] > total[x]), None)
        if mover is None:
            break
        if iterations >= iteration_cap:
            raise InternalError(
                f"local search exceeded iteration cap {iteration_cap}; "
                "the strict-improvement argument guarantees this cannot happen"
            )
        old = labels[mover]
        unsat_at = [0] * (k + 1)
        for y, hit, w in incident[mover]:
            unsat_at[hit[labels[y]]] += w
        new = min((c for c in range(1, k + 1) if c != old), key=unsat_at.__getitem__)
        # only the mover's edges change, so its local gain is the global gain
        if unsat_at[new] >= unsat[mover]:
            raise InternalError("local search step failed to improve globally")
        for y, hit, w in incident[mover]:
            h = hit[labels[y]]
            unsat[y] += w * ((h == new) - (h == old))
        unsat[mover] = unsat_at[new]
        labels[mover] = new
        iterations += 1

    result = tuple(labels)
    value = labeling_value(instance, result, Objective.MAX_NWA)
    if value < Fraction(1, 2):
        raise InternalError(f"local search ended below the 1/2 guarantee: {value}")
    return SolveResult(result, value, iterations)
