"""Exact solvers: exhaustive enumeration and a factor-2 local search.

The exact-search substrate, public to the verifiers too: every exhaustive
scan passes one gate, ``label_space``, which refuses an over-cap label
space or vertex count, then walks the game's compiled ``scan``, whose
``Layout`` and ``Plan`` per weighting are held in the instance's
``compiled_scans`` under ``"layout"``, ``"all"`` and ``"positive"``.
The layout splits the vertices into a depth-first prefix and a trailing
block, the longest suffix of at most ``BLOCK_LABELINGS`` (256, which 2^8
and 4^4 fill) joint labelings.  A row packs the block's scores, in
lexicographic order, into the fixed-width lanes of one integer, each plus a
``bias``: the width, in whole bytes, is chosen once per game from the sum
of its absolute integer weights, so that every score and every gap of two
stays below the lane's top (guard) bit.  A plan holds its block row and one
offset per label of each prefix vertex with edges into the block, which the
walk adds once for all the leaves below it: a ``Leaf`` costs at most one
integer add, the last prefix vertex yields its leaves without a child
generator each, and every one of the k^n labelings is still scored.  It is
compiled in one pass over the game's edges, at O(k) per permutation edge
and O(|R|) per relation edge, with a label table only per pair of prefix
vertices joined by an edge, filled in that same pass.  Rows may be shared;
consumers only read them, testing every lane at once with the test that
``Layout.lane_test`` returns once per scan, and unpacking a row only when
one of its labelings beats the incumbent or is a witness.

Brute force is deterministic: it takes the first maximum within a leaf's
row and lets a later leaf replace the incumbent only when strictly better.
Leaves come in lexicographic prefix order and lanes in lexicographic block
order, so ties resolve to the lexicographically smallest optimal labeling,
as in a plain lexicographic scan.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import (
    GugpEdge,
    GugpInstance,
    Labeling,
    RelEdge,
    RelationalInstance,
    built_once,
    capped_power_product,
)
from .errors import (
    CapacityError,
    DegenerateInstanceError,
    InternalError,
)
from .evaluation import (
    Objective,
    labeling_value,
    objective_normalizer,
    require_objective,
)
from .rng import SplitMix64

DEFAULT_BRUTE_CAP = 1_000_000
# Largest joint label count of the trailing block that one row scores.
BLOCK_LABELINGS = 256
# the array typecode of each lane width up to 8 bytes, widths ascending
_CODES = {array(code).itemsize: code for code in "BHILQ"}
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


class Layout(NamedTuple):
    """A scan's ``domains``, its prefix length ``split``, the ``block``'s joint
    labelings, and its lanes, as ``_layout`` sets them: ``masks[y][a]`` has a 1
    in each lane where block vertex y takes label a + 1."""
    domains: list[range]
    split: int
    block: list[Labeling]
    masks: dict[int, list[int]]
    bias: int
    ones: int
    guard: int
    guards: int

    def lane_test(self) -> Callable[[int, int], int]:
        """``reached(row, t)``, the guard of each lane of ``row`` that holds at
        least ``t``, with this layout's constants loaded once per scan: no lane
        reaches its guard, so lane + guard - t never borrows for 0 <= t <= guard."""
        ones, guard, guards = self.ones, self.guard, self.guards

        def reached(row: int, t: int) -> int:
            if t <= 0:
                return guards
            if t >= guard:
                return 0
            return (row | guards) - ones * t & guards

        return reached

    def lanes(self, row: int) -> Sequence[int]:
        """``row``'s lanes in block order, read by byte slices past 8 bytes."""
        step = self.guard.bit_length() // 8
        data = row.to_bytes(step * len(self.block), "little")
        if step not in _CODES:
            ends = range(step, len(data) + 1, step)
            return [int.from_bytes(data[i - step : i], "little") for i in ends]
        lanes = array(_CODES[step], data)
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes

    def top(self, row: int) -> tuple[int, int]:
        """The largest score in ``row`` and the index of its first lane."""
        lanes = self.lanes(row)
        top = max(lanes)
        return top - self.bias, lanes.index(top)


class Plan(NamedTuple):
    """A game's edges under one weighting, oriented and summed on a layout
    in one pass over the edges: see ``_plan``."""
    later: list[list[tuple[int, list[list[int]]]]]
    block_row: int
    cross: dict[int, dict[int, int]]


# (prefix labels, prefix score, row of the block's scores)
Leaf = tuple[Labeling, int, int]


def _layout(domains: list[range], weights: Sequence[int]) -> Layout:
    """Split ``domains`` into the prefix and the block, from the sizes alone,
    with ``step``-byte lanes that keep 4 ``bound`` below their top bit, the
    ``guard``, where ``bound`` is the sum of the absolute ``weights``: biased
    by ``bound``, every score of absolute value at most ``bound`` lies in
    [0, 2 bound], and the gap of two in [-2 bound, 2 bound]."""
    bound = sum(map(abs, weights))
    split, size = len(domains), 1
    while split and size * len(domains[split - 1]) <= BLOCK_LABELINGS:
        split -= 1
        size *= len(domains[split])
    block: list[Labeling] = list(itertools.product(*domains[split:]))
    need = (4 * bound).bit_length() // 8 + 1
    step = next((width for width in _CODES if width >= need), need)
    one = (1).to_bytes(step, "little")
    masks, run = {}, len(block)
    for y in range(split, len(domains)):
        k = len(domains[y])
        run //= k
        # label 1 holds the first of every k runs of equal labels at y
        first = (one * run + bytes(step * run * (k - 1))) * (len(block) // (run * k))
        shifts = range(0, 8 * step * run * k, 8 * step * run)
        masks[y] = [int.from_bytes(first, "little") << shift for shift in shifts]
    ones = int.from_bytes(one * len(block), "little")
    guard = 1 << 8 * step - 1
    return Layout(domains, split, block, masks, bound, ones, guard, ones * guard)


def _plan(
    layout: Layout, edges: Sequence[GugpEdge | RelEdge], weights: Sequence[int]
) -> Plan:
    """Orient and sum the edges under ``weights`` in one pass over them, at
    k label pairs per permutation edge and |R| per relation edge; an edge of
    weight 0 is skipped.

    ``block_row`` scores the edges inside the block plus the bias: w times
    the lanes where both ends take one of the edge's pairs.  ``cross[x][a]``
    scores the edges between prefix vertex x and the block at label a of x,
    an offset whose lanes may be negative: w times the mask of each block
    label that a pairs with.  ``later[x]`` holds (y, table[label of y][label
    of x]) per pair of prefix vertices y < x joined by an edge, in either
    orientation, padded to the largest label count: the walk sums whole
    rows of these, so only these vertex pairs are tabled.  Every edge that
    is not inside the block is oriented lower vertex first, so a crossing
    edge starts at its prefix vertex and a prefix edge at y.
    """
    domains, split, _, masks = layout[:4]
    block_row = layout.bias * layout.ones
    cross: dict[int, dict[int, int]] = {}
    later: list[list[tuple[int, list[list[int]]]]] = [[] for _ in range(split)]
    tables: dict[tuple[int, int], list[list[int]]] = {}
    k = max(map(len, domains))
    for e, w in zip(edges, weights):
        if not w:
            continue
        u, v = e.u, e.v
        pairs = e.rel.pairs if isinstance(e, RelEdge) else enumerate(e.pi.image, 1)
        if u >= split and v >= split:
            at_u, at_v = masks[u], masks[v]
            block_row += w * sum(at_u[a - 1] & at_v[b - 1] for a, b in pairs)
            continue
        # lower vertex first: a prefix vertex, before the block or a later one
        if u > v:
            u, v, pairs = v, u, [(b, a) for a, b in pairs]
        if v >= split:
            by_label, at_v = cross.setdefault(u, dict.fromkeys(domains[u], 0)), masks[v]
            for a, b in pairs:
                by_label[a] += w * at_v[b - 1]
        else:
            table = tables.get((u, v))
            if table is None:
                table = tables[u, v] = [[0] * (k + 1) for _ in range(k + 1)]
                later[v].append((u, table))
            for a, b in pairs:
                table[a][b] += w
    return Plan(later, block_row, cross)


def _leaves(layout: Layout, plan: Plan) -> Iterator[Leaf]:
    """One ``(prefix, base, row)`` per prefix labeling, in lexicographic
    order: labeling ``prefix + block[j]`` scores ``base`` plus lane j of
    ``row`` less the bias.

    ``row`` is the block row carried down the walk: a prefix vertex without
    edges into the block hands its own row to every child, and the plan's
    ``block_row`` starts every scan; with an empty prefix it is the one
    leaf's row.
    """
    domains, split = layout[:2]
    later, block_row, cross = plan
    labels = [0] * split

    def walk(x: int, base: int, row: int) -> Iterator[Leaf]:
        """Label vertex x onward; ``base`` scores the labels before x and
        ``row`` the block under them.  The last prefix vertex yields its
        leaves itself."""
        gain = list(map(sum, zip(*(t[labels[y]] for y, t in later[x]))))
        by_label, last = cross.get(x), x + 1 == split
        for a in domains[x]:
            labels[x] = a
            base_a = base + gain[a] if gain else base
            row_a = row if by_label is None else row + by_label[a]
            if last:
                yield tuple(labels), base_a, row_a
            else:
                yield from walk(x + 1, base_a, row_a)

    return walk(0, 0, block_row) if split else iter([((), 0, block_row)])


def scan(
    instance: GugpInstance | RelationalInstance,
    domains: list[range],
    positive: bool = False,
) -> tuple[Layout, Iterator[Leaf]]:
    """The layout and the leaves of the scan over the ``domains`` that
    ``label_space`` returned, under every edge weight or the positive ones;
    the layout and each plan are compiled once per instance."""
    scans = instance.compiled_scans
    weights = instance.integer_weights[1]
    layout = built_once(scans, "layout", _layout, domains, weights)
    key = "positive" if positive else "all"
    if key not in scans:
        weights = [max(w, 0) if positive else w for w in weights]
        scans[key] = _plan(layout, instance.edges, weights)
    return layout, _leaves(layout, scans[key])


def _best_labeling(layout: Layout, leaves: Iterator[Leaf]) -> Labeling:
    """The lexicographically first labeling with the largest total table
    weight: a leaf's row is unpacked only when some lane beats the
    incumbent, and ``Layout.top`` keeps the first of its equal maxima."""
    best = labeling = None
    reached, bias = layout.lane_test(), layout.bias
    for prefix, base, row in leaves:
        if best is None or reached(row, best - base + 1 + bias):
            top, j = layout.top(row)
            best, labeling = base + top, prefix + layout.block[j]
    assert labeling is not None
    return labeling


def label_space(
    instance: GugpInstance | RelationalInstance, cap: int
) -> tuple[int, list[range]]:
    """The gate in front of every exhaustive scan: the label space, a product
    of ``k**e`` per side, and each vertex's label range.

    ``CapacityError`` refuses a label space over ``cap``, then a vertex count
    over ``cap``, before any per-vertex list is built.  For k >= 2 the first
    rule implies the second; the second bounds one-label scans.
    """
    n = instance.n
    if isinstance(instance, GugpInstance):
        factors: tuple[tuple[int, int], ...] = ((instance.k, n),)
    elif instance.sides is None:
        factors = ((instance.k1, n),)
    else:
        left = instance.sides.count("V")
        factors = ((instance.k1, left), (instance.k2, n - left))
    space = capped_power_product(factors, cap)
    if space is None:
        shown = " * ".join(f"{k}^{e}" for k, e in factors)
        raise CapacityError(f"label space {shown} exceeds cap {cap}")
    if n > cap:
        raise CapacityError(f"vertex count {n} exceeds cap {cap}")
    return space, [range(1, instance.label_count(v) + 1) for v in range(n)]


def brute_force(
    instance: GugpInstance | RelationalInstance,
    objective: Objective,
    cap: int = DEFAULT_BRUTE_CAP,
) -> SolveResult:
    """Enumerate all k^n labelings and return the optimum for the objective.

    All six objectives are optimized by the labeling that maximizes the
    signed satisfied weight (the families differ only in normalization and
    in whether the satisfied or unsatisfied share is reported), so a single
    scan direction serves every objective and ties break identically.  A
    relational game's weights are all positive, so it solves under max-ugp.
    """
    m = require_objective(instance, objective)
    space, domains = label_space(instance, cap)
    objective_normalizer(m, objective)  # a zero normalizer refuses before the scan
    best = _best_labeling(*scan(instance, domains))
    return SolveResult(best, labeling_value(instance, best, objective), space)


def brute_force_relational(
    instance: RelationalInstance,
    cap: int = DEFAULT_BRUTE_CAP,
) -> SolveResult:
    """Brute force under max-ugp, a relational game's one objective."""
    return brute_force(instance, Objective.MAX_UGP, cap)


def local_search_half(instance: GugpInstance, seed: int | None = None) -> SolveResult:
    """Local search for all-negative instances with a guaranteed value >= 1/2.

    The instance is viewed in restated form: each edge demands
    pi(f(u)) != f(v) and counts with weight |w|.  While some vertex sees less
    than half of its incident restated weight satisfied, the smallest such
    vertex is reassigned to its locally best label different from the current
    one (smallest label on ties); a min-heap of the vertices below the
    threshold finds it, so a step costs O(deg log n), not a scan of all n
    vertices.  Every step strictly increases the global restated satisfied
    weight, by at least 1 on integer-scaled weights, so their sum bounds
    the steps; a run past it raises ``InternalError``.  At termination each
    vertex meets the half threshold locally, hence the labeling satisfies at
    least half of the total restated weight, i.e. its max-NWA value is at
    least 1/2.

    Each edge reads its permutation's ``rows``, the padded image and
    inverse, which each permutation object derives once.

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
    iteration_cap = sum(weights)

    draws = [0] * n if seed is None else SplitMix64(seed).below_each([k] * n)
    labels = [1 + label for label in draws]

    # incident[x] holds (y, hit, w) per edge at x: the edge is unsatisfied
    # in restated form exactly when f(x) = hit[f(y)]
    incident: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
    for e, w in zip(instance.edges, weights):
        image, inverse = e.pi.rows
        incident[e.u].append((e.v, inverse, w))
        incident[e.v].append((e.u, image, w))
    total = [sum(w for _, _, w in edges) for edges in incident]
    # unsat[x]: restated weight at x left unsatisfied; x is below the half
    # threshold exactly when 2 * unsat[x] > total[x]
    unsat = [
        sum(w for y, hit, w in incident[x] if hit[labels[y]] == labels[x])
        for x in range(n)
    ]

    # a min-heap (a sorted list to start) holding every vertex below the
    # threshold, and stale entries dropped when they reach the top, so its
    # top is the mover
    heap = [x for x in range(n) if 2 * unsat[x] > total[x]]
    iterations = 0
    while heap:
        mover = heap[0]
        if 2 * unsat[mover] <= total[mover]:
            heappop(heap)
            continue
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
            if h == new:
                unsat[y] += w
                # only a rise can take y below the threshold
                if 2 * unsat[y] > total[y]:
                    heappush(heap, y)
            elif h == old:
                unsat[y] -= w
        unsat[mover] = unsat_at[new]
        labels[mover] = new
        iterations += 1

    result = tuple(labels)
    value = labeling_value(instance, result, Objective.MAX_NWA)
    if value < Fraction(1, 2):
        raise InternalError(f"local search ended below the 1/2 guarantee: {value}")
    return SolveResult(result, value, iterations)
