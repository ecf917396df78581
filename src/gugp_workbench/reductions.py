"""Instance transformations between problem families.

Contents:

* ``tsp_to_min_nwa`` -- encode a travelling-salesman instance as an
  all-negative unique game whose minimum |satisfied weight| is the optimal
  tour length;
* ``repeat_max3cut`` / ``product_coloring`` -- coordinate-wise repetition of
  a 3-cut game on a graph;
* ``pwt1_gadget`` -- expand each repeated edge into a bundle of coordinate
  shift edges whose unsatisfied weight is an exact 0/1 indicator of a
  coordinate collision; the resulting instances have mixed signs, positive
  total, and negative/positive ratio 1 - 2^-l;
* ``two2two_to_pwt_half`` -- expand each two-to-two constrained edge into a
  bundle of 2k parallel permutation edges whose unsatisfied weight indicates
  violation of the source constraint; ratio is exactly 1/2;
* ``strip_negative`` -- drop negative edges, keeping order.

Mixed-radix encodings (base n for tuple vertices, base 3 for tuple labels,
most-significant coordinate first) are part of the interchange contract and
exposed via the encode/decode helpers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GugpEdge,
    GugpInstance,
    Labeling,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    capped_power_product,
    check_instance,
    edge_weight,
    scaled_weights,
)
from .errors import (
    CapacityError,
    DegenerateInstanceError,
    ValidationError,
)

LABEL_CAP = 729  # 3^l
VERTEX_CAP = 20_000  # n^l
REPEAT_SIZE_CAP = 2_000_000  # repeated edges times relation pairs, (2m)^l/2 * 6^l


def modplus(m: int, n: int) -> int:
    """Positive-representative modulus: result in [1..n], with multiples of n
    mapping to n rather than 0."""
    if n < 1:
        raise ValidationError("modulus must be positive")
    r = m % n
    return n if r == 0 else r


def rotation(k: int, shift: int) -> Permutation:
    """The cyclic shift i -> i + shift on [1..k]."""
    return Permutation(tuple(modplus(i + shift, k) for i in range(1, k + 1)))


@dataclass(frozen=True)
class BundleMap:
    """How a gadget's edges replace its source's edges.

    Every source edge becomes ``size`` consecutive gadget edges, in source
    order: bundle i is ``gadget.edges[i * size:(i + 1) * size]``, and the
    ``source_count`` bundles together are the whole edge sequence.
    """

    source_count: int
    size: int

    def __post_init__(self):
        if self.source_count < 0 or self.size < 1:
            raise ValidationError(
                f"bundle map needs a count >= 0 and a size >= 1, "
                f"got ({self.source_count}, {self.size})"
            )


# ---------------------------------------------------------------------------
# travelling salesman


@dataclass(frozen=True)
class TspInstance:
    """Complete graph on n >= 3 vertices with positive rational pair weights.

    ``weights`` holds one (u, v, w) triple per unordered pair, u < v, sorted
    lexicographically.
    """

    n: int
    weights: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError("travelling salesman needs at least 3 vertices")
        normalized = tuple(
            sorted(
                (min(u, v), max(u, v), Fraction(w)) for u, v, w in self.weights
            )
        )
        object.__setattr__(self, "weights", normalized)
        # the count is compared first, so a huge n allocates nothing
        pairs = [(u, v) for u, v, _ in normalized]
        if len(pairs) != self.n * (self.n - 1) // 2 or pairs != list(
            itertools.combinations(range(self.n), 2)
        ):
            raise ValidationError(
                "every unordered pair needs exactly one weight, with u < v"
            )
        if any(w <= 0 for _, _, w in normalized):
            raise ValidationError("pair weights must be positive")

    @functools.cached_property
    def weight_map(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): w for u, v, w in self.weights}


def tsp_to_min_nwa(tsp: TspInstance) -> tuple[GugpInstance, BundleMap]:
    """Encode a tour-length minimization as an all-negative unique game.

    Labels are [1..n].  Every unordered pair {u, v} receives three parallel
    edges: an identity edge of weight -M with M = n * max pair weight
    (penalizing label collisions), and two cyclic-shift edges (+1 and -1) of
    weight -w(u, v) rewarding consecutive labels.  A bijective labeling reads
    off a tour position per vertex; its |satisfied weight| is the tour
    length, and any labeling that repeats a label is pinned to
    |satisfied| >= M, which no tour exceeds.
    """
    n = tsp.n
    big = n * max(w for _, _, w in tsp.weights)
    identity = Permutation.identity(n)
    ahead = rotation(n, 1)
    behind = rotation(n, -1)
    edges: list[GugpEdge] = []
    for u, v, w in tsp.weights:
        edges.append(GugpEdge(u, v, -big, identity))
        edges.append(GugpEdge(u, v, -w, ahead))
        edges.append(GugpEdge(u, v, -w, behind))
    instance = GugpInstance(n, n, tuple(edges))
    return instance, BundleMap(len(tsp.weights), 3)


def tour_to_labeling(tsp: TspInstance, tour: tuple[int, ...]) -> Labeling:
    """Assign position labels 1..n along the tour order."""
    if sorted(tour) != list(range(tsp.n)):
        raise ValidationError("tour must visit every vertex exactly once")
    labels = [0] * tsp.n
    for position, vertex in enumerate(tour, start=1):
        labels[vertex] = position
    return tuple(labels)


def labeling_to_tour(tsp: TspInstance, labeling: Labeling) -> tuple[int, ...]:
    """Invert ``tour_to_labeling``: order vertices by their labels."""
    if sorted(labeling) != list(range(1, tsp.n + 1)):
        raise ValidationError("labeling is not a bijection onto [1..n]")
    order = [0] * tsp.n
    for vertex, label in enumerate(labeling):
        order[label - 1] = vertex
    return tuple(order)


def tour_weight(tsp: TspInstance, tour: tuple[int, ...]) -> Fraction:
    if sorted(tour) != list(range(tsp.n)):
        raise ValidationError("tour must visit every vertex exactly once")
    wmap = tsp.weight_map
    legs = zip(tour, tour[1:] + tour[:1])
    scale, weights = scaled_weights([wmap[min(a, b), max(a, b)] for a, b in legs])
    return Fraction(sum(weights), scale)


# ---------------------------------------------------------------------------
# 3-cut games and coordinate-wise repetition


def max3cut_instance(
    n: int, edges: tuple[tuple[int, int], ...]
) -> RelationalInstance:
    """A 3-cut game: every edge demands different labels from {1, 2, 3}."""
    differ = all_coords_differ_relation(1)
    rel_edges = tuple(RelEdge(u, v, Fraction(1), differ) for u, v in edges)
    return RelationalInstance(n, 3, 3, rel_edges)


def encode_vertex_tuple(coords: tuple[int, ...], base_n: int) -> int:
    value = 0
    for c in coords:
        if not 0 <= c < base_n:
            raise ValidationError(f"coordinate {c} out of range [0..{base_n - 1}]")
        value = value * base_n + c
    return value


def decode_vertex(vertex: int, base_n: int, fold: int) -> tuple[int, ...]:
    if not 0 <= vertex < base_n**fold:
        raise ValidationError(f"vertex {vertex} out of range for {base_n}^{fold}")
    coords = []
    for _ in range(fold):
        vertex, c = divmod(vertex, base_n)
        coords.append(c)
    return tuple(reversed(coords))


def encode_label_tuple(colors: tuple[int, ...]) -> int:
    value = 0
    for c in colors:
        if not 1 <= c <= 3:
            raise ValidationError(f"color {c} out of range [1..3]")
        value = value * 3 + (c - 1)
    return value + 1


def decode_label(label: int, fold: int) -> tuple[int, ...]:
    if not 1 <= label <= 3**fold:
        raise ValidationError(f"label {label} out of range for 3^{fold}")
    value = label - 1
    colors = []
    for _ in range(fold):
        value, c = divmod(value, 3)
        colors.append(c + 1)
    return tuple(reversed(colors))


def all_coords_differ_relation(fold: int) -> Relation:
    """Relation on [3^fold] holding label pairs that differ in every coordinate."""
    k = 3**fold
    pairs = frozenset(
        (a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if all(x != y for x, y in zip(decode_label(a, fold), decode_label(b, fold)))
    )
    return Relation(k, k, pairs)


@dataclass(frozen=True)
class RepeatedInstance:
    """A 3-cut game repeated ``fold`` times coordinate-wise.

    Vertices are all fold-tuples over the base vertices, encoded mixed-radix;
    edges are the deduplicated unordered tuple pairs whose every coordinate
    pair is a base edge, stored (min, max) in sorted order.  Labels are the
    3^fold color tuples, and an edge wants its endpoints to differ in every
    coordinate.
    """

    base_n: int
    fold: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.base_n < 1 or self.fold < 1:
            raise ValidationError("base size and fold must be positive")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge ({u},{v}) out of vertex range")
            if u >= v:
                raise ValidationError("repeated edges must be stored (min, max)")
            if (u, v) in seen:
                raise ValidationError(f"duplicate repeated edge ({u},{v})")
            seen.add((u, v))
            cu = decode_vertex(u, self.base_n, self.fold)
            cv = decode_vertex(v, self.base_n, self.fold)
            if any(a == b for a, b in zip(cu, cv)):
                raise ValidationError(
                    f"edge ({u},{v}) has a colliding coordinate pair"
                )
        if list(self.edges) != sorted(self.edges):
            raise ValidationError("repeated edges must be sorted")

    @property
    def n(self) -> int:
        return self.base_n**self.fold

    @property
    def label_count(self) -> int:
        return 3**self.fold

    def to_relational(self) -> RelationalInstance:
        differ = all_coords_differ_relation(self.fold)
        rel_edges = tuple(
            RelEdge(u, v, Fraction(1), differ) for u, v in self.edges
        )
        return RelationalInstance(self.n, self.label_count, self.label_count, rel_edges)


def label_fold(k: int) -> int:
    """The fold l >= 1 with 3^l == k; ``ValidationError`` if there is none,
    ``CapacityError`` when k exceeds ``LABEL_CAP``."""
    fold = 0
    while 3**fold < k:
        fold += 1
    if 3**fold != k or fold < 1:
        raise ValidationError("label count must be a power of three (at least 3)")
    if k > LABEL_CAP:
        raise CapacityError(f"label count 3^{fold} exceeds cap {LABEL_CAP}")
    return fold


def repeated_from_relational(instance: RelationalInstance) -> RepeatedInstance:
    """Recover a repeated 3-cut game from its relational serialization.

    Requires k1 == k2 == 3^fold, unit edge weights, every relation equal to
    the all-coordinates-differ relation, and a vertex count that is a perfect
    fold-th power (the base size).
    """
    if instance.k2 != instance.k1:
        raise ValidationError("label count must be a power of three (at least 3)")
    fold = label_fold(instance.k1)
    differ = all_coords_differ_relation(fold)
    pairs = []
    for e in instance.edges:
        if e.weight != 1:
            raise ValidationError("repeated 3-cut edges carry unit weight")
        if e.rel != differ:
            raise ValidationError(
                "every relation must be the all-coordinates-differ relation"
            )
        pairs.append((min(e.u, e.v), max(e.u, e.v)))
    # integer fold-th root: binary search below 2^ceil(bits(n) / fold)
    n, base, top = instance.n, 1, 1 << -(-instance.n.bit_length() // fold)
    while base < top:
        mid = (base + top + 1) // 2
        base, top = (mid, top) if mid**fold <= n else (base, mid - 1)
    if base**fold != n:
        raise ValidationError(
            f"vertex count {instance.n} is not a perfect power with exponent {fold}"
        )
    return RepeatedInstance(base, fold, tuple(sorted(pairs)))


def require_repeat_size(n: int, m: int, fold: int) -> None:
    """Refuse a fold below 1, and with ``CapacityError`` a repetition of a
    base with n vertices and m edges that exceeds the label, vertex or
    ``REPEAT_SIZE_CAP`` bound; the counts alone decide."""
    if fold < 1:
        raise ValidationError("fold must be at least 1")
    if capped_power_product(((3, fold),), LABEL_CAP) is None:
        raise CapacityError(f"label count 3^{fold} exceeds cap {LABEL_CAP}")
    if capped_power_product(((n, fold),), VERTEX_CAP) is None:
        raise CapacityError(f"vertex count {n}^{fold} exceeds cap {VERTEX_CAP}")
    if capped_power_product(((2 * m, fold), (6, fold)), 2 * REPEAT_SIZE_CAP) is None:
        raise CapacityError(
            f"repeated size (2*{m})^{fold}/2 edges * 6^{fold} pairs "
            f"exceeds cap {REPEAT_SIZE_CAP}"
        )


def repeat_max3cut(
    n: int,
    edges: tuple[tuple[int, int], ...],
    fold: int,
) -> RepeatedInstance:
    """Repeat a simple undirected graph's 3-cut game ``fold`` times.

    The tuple-pair edge set is generated from ordered choices of one oriented
    base edge per coordinate, canonicalized and deduplicated.  A simple graph
    with m edges gives (2m)^fold / 2 edges of 6^fold relation pairs each;
    ``require_repeat_size`` bounds that product before the first choice.
    """
    require_repeat_size(n, len(edges), fold)
    oriented: list[tuple[int, int]] = []
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of vertex range")
        oriented.append((u, v))
        oriented.append((v, u))
    pair_set: set[tuple[int, int]] = set()
    for combo in itertools.product(oriented, repeat=fold):
        a = encode_vertex_tuple(tuple(c[0] for c in combo), n)
        b = encode_vertex_tuple(tuple(c[1] for c in combo), n)
        pair_set.add((min(a, b), max(a, b)))
    return RepeatedInstance(n, fold, tuple(sorted(pair_set)))


def product_coloring(chi: tuple[int, ...], fold: int) -> Labeling:
    """Lift a base 3-coloring to the repeated instance coordinate-wise.

    Tuple vertex (v_1, ..., v_fold) receives the encoded color tuple
    (chi(v_1), ..., chi(v_fold)).  If chi properly colors the base graph, the
    lifted labeling differs in every coordinate across every repeated edge.
    """
    base_n = len(chi)
    for c in chi:
        if not 1 <= c <= 3:
            raise ValidationError(f"color {c} out of range [1..3]")
    labels = []
    for vertex in range(base_n**fold):
        coords = decode_vertex(vertex, base_n, fold)
        labels.append(encode_label_tuple(tuple(chi[c] for c in coords)))
    return tuple(labels)


# ---------------------------------------------------------------------------
# repeated 3-cut -> mixed-sign unique game (ratio 1 - 2^-l)


def pwt1_gadget(repeated: RepeatedInstance) -> tuple[GugpInstance, BundleMap]:
    """Expand every repeated edge into a bundle of 3^fold shift edges.

    Bundle edges are indexed by offset tuples (i_1, ..., i_fold) over
    {1, 2, 3} in lexicographic order; the edge's permutation shifts label
    coordinate j by i_j - 1 (mod 3).  Exactly one bundle edge is satisfied by
    any label pair.  Offsets containing a 1 (a fixed coordinate) carry weight
    -(2^l - 1)/(3^l - 1); offsets entirely in {2, 3} carry weight
    (3^l - 2^l)/(3^l - 1).  These solve the two weight equations that make
    the bundle's unsatisfied weight exactly 1 when the endpoint labels share
    a coordinate and exactly 0 otherwise.
    """
    fold = repeated.fold
    k = 3**fold
    w_fixed = Fraction(-(2**fold - 1), 3**fold - 1)
    w_moving = Fraction(3**fold - 2**fold, 3**fold - 1)
    shifts: list[tuple[Permutation, Fraction]] = []
    for offsets in itertools.product((1, 2, 3), repeat=fold):
        image = []
        for label in range(1, k + 1):
            digits = decode_label(label, fold)
            moved = tuple(
                modplus(d + off - 1, 3) for d, off in zip(digits, offsets)
            )
            image.append(encode_label_tuple(moved))
        weight = w_fixed if 1 in offsets else w_moving
        shifts.append((Permutation(tuple(image)), weight))
    edges = tuple(
        GugpEdge(u, v, weight, pi)
        for u, v in repeated.edges
        for pi, weight in shifts
    )
    instance = GugpInstance(repeated.n, k, edges)
    return instance, BundleMap(len(repeated.edges), k)


# ---------------------------------------------------------------------------
# two-to-two games -> mixed-sign unique game (ratio 1/2)


def t_contains(a: int, b: int) -> bool:
    """Whether (a, b) lies in the block-diagonal pairing relation: both
    coordinates fall in the same consecutive pair {2l-1, 2l}."""
    return (a + 1) // 2 == (b + 1) // 2


def two2two_relation(pi_u: Permutation, pi_v: Permutation) -> Relation:
    """The relation holding (i, j) iff (pi_u(i), pi_v(j)) lands in the
    block-diagonal pairing; always exactly 4k pairs on [2k] x [2k]."""
    if pi_u.size != pi_v.size:
        raise ValidationError("endpoint permutations must have equal size")
    if pi_u.size % 2 != 0:
        raise ValidationError("two-to-two relations need an even label count")
    k2 = pi_u.size
    pairs = frozenset(
        (i, j)
        for i in range(1, k2 + 1)
        for j in range(1, k2 + 1)
        if t_contains(pi_u.apply(i), pi_v.apply(j))
    )
    return Relation(k2, k2, pairs)


@dataclass(frozen=True, slots=True)
class T22Edge:
    """Edge of a two-to-two game: endpoint permutations on [2k] plus weight."""

    u: int
    v: int
    weight: Fraction
    pi_u: Permutation
    pi_v: Permutation

    def __post_init__(self):
        weight = edge_weight(self.u, self.v, self.weight)
        if weight.numerator <= 0:
            raise ValidationError("two-to-two edges need positive weight")
        if self.pi_u.size != self.pi_v.size:
            raise ValidationError("endpoint permutations must have equal size")
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True)
class TwoToTwoInstance:
    """A game whose edges carry two-to-two constraints, given by endpoint
    permutations on [2k] relative to the block-diagonal pairing."""

    n: int
    k: int
    edges: tuple[T22Edge, ...]

    def __post_init__(self):
        check_instance(self)
        if self.k < 2:
            # at k = 1 the gadget weight equations force a zero weight,
            # so the whole family is rejected as degenerate
            raise DegenerateInstanceError(
                "two-to-two games need half-size k >= 2"
            )
        for e in self.edges:
            if e.pi_u.size != 2 * self.k:
                raise ValidationError(
                    f"edge ({e.u},{e.v}) permutations must act on [1..{2 * self.k}]"
                )

    def to_unit_relational(self) -> RelationalInstance:
        """Same constraints with every weight forced to 1 (edge counting)."""
        edges = tuple(
            RelEdge(e.u, e.v, Fraction(1), two2two_relation(e.pi_u, e.pi_v))
            for e in self.edges
        )
        return RelationalInstance(self.n, 2 * self.k, 2 * self.k, edges)


def _pair_shift(a: int, m: int, k2: int) -> int:
    # Bundle edge m (1-based) moves position a by a shift that depends only
    # on m and a's parity; across m = 1..2k the images of any fixed a sweep
    # all of [2k], which is why the 2k permutation graphs tile [2k] x [2k].
    # Edge 2j - 1 shifts every position by 2j - 2; edge 2j first swaps a
    # with its pair partner (1 <-> 2, 3 <-> 4, ...), then shifts by the same.
    if m % 2 == 0:
        a += 1 if a % 2 else -1
    return modplus(a + m - 2 + m % 2, k2)


def two2two_to_pwt_half(
    instance: TwoToTwoInstance,
) -> tuple[GugpInstance, BundleMap]:
    """Expand every two-to-two edge into a bundle of 2k permutation edges.

    Edge m of a bundle maps x to pi_v^{-1}(shift_m(pi_u(x))); the 2k
    permutation graphs partition [2k] x [2k], so exactly one bundle edge is
    satisfied by any label pair.  The first two edges (which together cover
    precisely the source relation) weigh (2k-2)/(2k-1) each; the remaining
    2k-2 edges weigh -1/(2k-1).  The bundle's unsatisfied weight is then
    exactly 0 when the source constraint holds and exactly 1 when it does
    not.
    """
    k2 = 2 * instance.k
    w_hit = Fraction(2 * instance.k - 2, 2 * instance.k - 1)
    w_miss = Fraction(-1, 2 * instance.k - 1)
    edges: list[GugpEdge] = []
    for e in instance.edges:
        inv_v = e.pi_v.invert()
        for m in range(1, k2 + 1):
            image = tuple(
                inv_v.apply(_pair_shift(e.pi_u.apply(x), m, k2))
                for x in range(1, k2 + 1)
            )
            weight = w_hit if m <= 2 else w_miss
            edges.append(GugpEdge(e.u, e.v, weight, Permutation(image)))
    gadget = GugpInstance(instance.n, k2, tuple(edges))
    return gadget, BundleMap(len(instance.edges), k2)


# ---------------------------------------------------------------------------
# negative-edge stripping


def strip_negative(instance: GugpInstance) -> GugpInstance:
    """Keep only the positive edges, preserving their order."""
    kept = tuple(e for e in instance.edges if e.weight > 0)
    if not kept:
        raise DegenerateInstanceError("no positive edges to keep")
    return GugpInstance(instance.n, instance.k, kept)
