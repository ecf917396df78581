"""Core types for games with permutation or relation constraints on edges.

Conventions used throughout the workbench:

* vertices are 0-indexed integers, labels are 1-indexed integers;
* edges are oriented (u, v) pairs; parallel edges are allowed, self-loops are
  not;
* all numeric quantities are exact ``fractions.Fraction`` values -- no
  floating point exists anywhere in this package;
* every type is immutable once constructed; what is derived from it (an
  instance's ``integer_weights`` and ``metrics``, a permutation's padded
  ``rows``) is cached on the object at first use and touches no equality,
  hash or ``repr``.  The exceptions are what depends on a shape alone, not
  on one object: ``reductions._shift_bundle`` and
  ``reductions.all_coords_differ_relation`` per fold, and the scan layout's
  shape part, ``solvers._shape``, per (label counts, lane width), are cached
  at module level and shared;
* the edge types (``GugpEdge``, ``RelEdge`` and ``reductions.T22Edge``) are
  slotted frozen dataclasses with the generated ``__init__``, equality,
  hashing and ``repr``; each checks its arguments in a ``__post_init__``
  (``edge_weight``, then its own sign rule), so ``dataclasses.replace``
  validates the new edge;
* every bulk ``GugpEdge`` build goes through ``gugp_edges``, which takes
  columns, and every bulk ``Permutation`` build through ``permutations``:
  each checks the constructor's rules in whole-column passes, stores with no
  ``__post_init__`` call, and on a failed rule replays the constructor,
  so the first error is the constructor's own;
* ``check_instance`` and ``GugpInstance`` check edges in whole-column passes
  too, walking them only to name the first offender; ``RelationalInstance``
  and ``reductions.TwoToTwoInstance`` still walk every edge for their rules.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence

from .errors import CapacityError, ValidationError

# A labeling is a plain tuple: entry i is the (1-indexed) label of vertex i.
Labeling = tuple[int, ...]

# Largest m * (bits of the common scale) that ``scaled_weights`` builds: 2 MiB
# of scaled integers.  A parsed denominator has at most 14,285 bits, so under
# it no weight sum passes about 500,000 bits, which takes about 0.4 s to print
# in decimal on CPython 3.11; the largest file the generators write, 100,000
# weights at a 12-bit scale, needs 1,200,000.
SCALED_BITS_CAP = 1 << 24


@dataclass(frozen=True)
class Permutation:
    """A bijection on [k], stored as the image tuple: image[i-1] = pi(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        k = len(self.image)
        if k < 1:
            raise ValidationError("permutation must act on at least one label")
        if sorted(self.image) != list(range(1, k + 1)):
            raise ValidationError(f"not a bijection on [1..{k}]: {self.image}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @property
    def size(self) -> int:
        return len(self.image)

    def apply(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise ValidationError(f"label {i} out of range [1..{len(self.image)}]")
        return self.image[i - 1]

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The image and the inverse, each padded by a leading 0 so that
        ``row[label]`` is that label's image; derived once per object."""
        inverse = [0] * (len(self.image) + 1)
        for label, hit in enumerate(self.image, start=1):
            inverse[hit] = label
        return (0,) + self.image, tuple(inverse)


def permutations(images: Sequence[tuple[int, ...]]) -> list[Permutation]:
    """``[Permutation(image) for image in images]`` for tuples: k >= 1 and
    ``sorted(image) == [1..k]`` are checked in whole-column passes, and on a
    failed rule or a ``TypeError`` the constructor runs over the images."""
    try:
        targets = {k: list(range(1, k + 1)) for k in set(map(len, images))}
        sizes = map(targets.get, map(len, images))
        valid = 0 not in targets and all(map(operator.eq, map(sorted, images), sizes))
    except TypeError:
        valid = False
    if not valid:
        return list(map(Permutation, images))
    perms = list(map(object.__new__, repeat(Permutation, len(images))))
    deque(map(object.__setattr__, perms, repeat("image"), images), maxlen=0)
    return perms


@dataclass(frozen=True)
class Relation:
    """An arbitrary relation between label sets [k1] and [k2]."""

    k1: int
    k2: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        if self.k1 < 1 or self.k2 < 1:
            raise ValidationError("relation label counts must be positive")
        for a, b in self.pairs:
            if not (1 <= a <= self.k1 and 1 <= b <= self.k2):
                raise ValidationError(
                    f"relation pair ({a},{b}) out of range [1..{self.k1}]x[1..{self.k2}]"
                )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


def edge_weight(u: int, v: int, weight: Fraction | int) -> Fraction:
    """The rule every edge type (``GugpEdge``, ``RelEdge``, ``T22Edge``)
    shares, checked before its own sign rule: the weight is stored as a
    ``Fraction``, vertex ids are non-negative and the endpoints differ.
    Returns the weight to store; the sign rules read its ``numerator``,
    whose sign is the weight's."""
    if not isinstance(weight, Fraction):
        weight = Fraction(weight)
    if u < 0 or v < 0:
        raise ValidationError("vertex ids must be non-negative")
    if u == v:
        raise ValidationError(f"self-loop at vertex {u}")
    return weight


# endpoint and image columns, read in whole-column passes
_U, _V = operator.attrgetter("u"), operator.attrgetter("v")
_IMAGE = operator.attrgetter("pi.image")


def check_instance(instance) -> None:
    """The rule every instance type (``GugpInstance``, ``RelationalInstance``,
    ``TwoToTwoInstance``) shares: ``edges`` is stored as a tuple, there is at
    least one vertex and every endpoint is below ``n``.  The endpoints are
    checked in two ``max`` passes; the loop only names the first offender."""
    edges = tuple(instance.edges)
    object.__setattr__(instance, "edges", edges)
    n = instance.n
    if n < 1:
        raise ValidationError("instance needs at least one vertex")
    if max(map(_U, edges), default=0) >= n or max(map(_V, edges), default=0) >= n:
        for e in edges:
            if e.u >= n or e.v >= n:
                raise ValidationError(f"edge ({e.u},{e.v}) references vertex >= n={n}")


@dataclass(frozen=True, slots=True)
class GugpEdge:
    """Oriented edge carrying a permutation constraint and a signed weight.

    The edge is satisfied by a labeling f iff pi(f(u)) = f(v).
    """

    u: int
    v: int
    weight: Fraction
    pi: Permutation

    def __post_init__(self):
        weight = edge_weight(self.u, self.v, self.weight)
        if weight.numerator == 0:
            raise ValidationError(f"zero-weight edge ({self.u},{self.v})")
        object.__setattr__(self, "weight", weight)


# each field's slot descriptor ``__set__``: one C call per stored field
_GUGP_SETTERS = tuple(getattr(GugpEdge, f.name).__set__ for f in fields(GugpEdge))


def gugp_edges(
    us: Sequence[int],
    vs: Sequence[int],
    weights: Sequence[Fraction],
    pis: Sequence[Permutation],
) -> list[GugpEdge]:
    """``[GugpEdge(*args) for args in zip(us, vs, weights, pis)]`` for
    columns of equal length, with the constructor's rules checked in
    whole-column passes (the weight rules once per distinct weight object)
    and the edges stored through the slot setters, with no ``__post_init__``
    call.  If any rule fails, or a weight is not a ``Fraction``, the
    constructor runs over the columns in order, so the first error and its
    message are its own."""
    distinct = dict(zip(map(id, weights), weights)).values()
    if (
        min(us, default=0) < 0
        or min(vs, default=0) < 0
        or any(map(operator.eq, us, vs))
        or not all(isinstance(w, Fraction) and w.numerator for w in distinct)
    ):
        return list(map(GugpEdge, us, vs, weights, pis))
    edges = list(map(object.__new__, repeat(GugpEdge, len(us))))
    for setter, column in zip(_GUGP_SETTERS, (us, vs, weights, pis)):
        deque(map(setter, edges, column), maxlen=0)
    return edges


@dataclass(frozen=True)
class GugpInstance:
    """A unique-game instance: multigraph with permutation-constrained edges."""

    n: int
    k: int
    edges: tuple[GugpEdge, ...]

    def __post_init__(self):
        check_instance(self)
        if self.k < 1:
            raise ValidationError("instance needs at least one label")
        k = self.k
        if {*map(len, map(_IMAGE, self.edges))} - {k}:
            for e in self.edges:
                if len(e.pi.image) != k:
                    raise ValidationError(
                        f"edge ({e.u},{e.v}) permutation size {e.pi.size} != k={k}"
                    )

    @functools.cached_property
    def integer_weights(self) -> tuple[int, tuple[int, ...]]:
        """``scaled_weights`` over the edge weights in edge order, derived once."""
        return scaled_weights([e.weight for e in self.edges])

    @functools.cached_property
    def metrics(self) -> "InstanceMetrics":
        """``core.metrics`` of the instance, derived once."""
        scale, weights = self.integer_weights
        plus = sum(w for w in weights if w > 0)
        minus = sum(w for w in weights if w < 0)
        ratio = None if plus == 0 else Fraction(-minus, plus)
        w_plus, w_minus = Fraction(plus, scale), Fraction(minus, scale)
        return InstanceMetrics(w_plus, w_minus, Fraction(plus + minus, scale), ratio)

    @functools.cached_property
    def compiled_scans(self) -> dict:
        """The scan layout and plans ``solvers`` compiles on a first scan."""
        return {}

    def label_count(self, vertex: int) -> int:
        return self.k


@dataclass(frozen=True, slots=True)
class RelEdge:
    """Oriented edge carrying an arbitrary relation and a positive weight.

    The edge is satisfied by a labeling f iff (f(u), f(v)) is in the relation.
    """

    u: int
    v: int
    weight: Fraction
    rel: Relation

    def __post_init__(self):
        weight = edge_weight(self.u, self.v, self.weight)
        if weight.numerator <= 0:
            raise ValidationError(
                f"relational edge ({self.u},{self.v}) needs positive weight"
            )
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True)
class RelationalInstance:
    """A two-prover game: every edge constrains its endpoints by a relation.

    Non-bipartite instances (``sides`` None) require k1 == k2 (one shared
    label set).  Bipartite instances carry a side tag 'V' or 'W' per vertex;
    every edge must run from a V-vertex to a W-vertex, V-vertices take labels
    in [k1] and W-vertices labels in [k2].
    """

    n: int
    k1: int
    k2: int
    edges: tuple[RelEdge, ...]
    sides: tuple[str, ...] | None = None

    def __post_init__(self):
        check_instance(self)
        if self.k1 < 1 or self.k2 < 1:
            raise ValidationError("label counts must be positive")
        if self.sides is not None:
            object.__setattr__(self, "sides", tuple(self.sides))
            if len(self.sides) != self.n:
                raise ValidationError("bipartite instance needs a side per vertex")
            if any(s not in ("V", "W") for s in self.sides):
                raise ValidationError("vertex sides must be 'V' or 'W'")
        elif self.k1 != self.k2:
            raise ValidationError("non-bipartite instance requires k1 == k2")
        for e in self.edges:
            if e.rel.k1 != self.k1 or e.rel.k2 != self.k2:
                raise ValidationError(
                    f"edge ({e.u},{e.v}) relation shape ({e.rel.k1},{e.rel.k2}) "
                    f"!= instance ({self.k1},{self.k2})"
                )
            if self.sides is not None and (
                self.sides[e.u] != "V" or self.sides[e.v] != "W"
            ):
                raise ValidationError(
                    f"edge ({e.u},{e.v}) must run from side V to side W"
                )

    integer_weights = GugpInstance.integer_weights  # the same derivations
    metrics = GugpInstance.metrics
    compiled_scans = GugpInstance.compiled_scans

    @property
    def bipartite(self) -> bool:
        return self.sides is not None

    def label_count(self, vertex: int) -> int:
        if self.sides is not None and self.sides[vertex] == "W":
            return self.k2
        return self.k1


@dataclass(frozen=True)
class InstanceMetrics:
    """Weight aggregates: positive sum, negative sum, their total, and the
    negative/positive magnitude ratio (None when no positive weight exists)."""

    w_plus: Fraction
    w_minus: Fraction
    sigma: Fraction
    ratio: Fraction | None


def scaled_weights(weights: Sequence[Fraction | int]) -> tuple[int, tuple[int, ...]]:
    """Return ``(scale, ints)`` with ``ints[i] == weights[i] * scale`` exactly.

    ``scale`` is the least common denominator, so integer sums and
    comparisons stand in for exact ``Fraction`` ones and
    ``Fraction(x, scale)`` converts a result back.  Each distinct weight
    object is scaled once, keyed by ``id``, which is safe because ``weights``
    holds every weight for the whole call.  The scale grows one distinct
    denominator at a time, and ``CapacityError`` refuses it as soon as
    ``len(weights)`` times its bit length passes ``SCALED_BITS_CAP``, before
    any weight is scaled.
    """
    distinct = dict(zip(map(id, weights), weights))
    scale = 1
    for den in dict.fromkeys(w.denominator for w in distinct.values()):
        scale = math.lcm(scale, den)
        if len(weights) * scale.bit_length() > SCALED_BITS_CAP:
            raise CapacityError(
                f"scaled weights need {len(weights)} * {scale.bit_length()} bits "
                f"> cap {SCALED_BITS_CAP}"
            )
    scaled = {
        key: w.numerator * (scale // w.denominator) for key, w in distinct.items()
    }
    return scale, tuple(map(scaled.__getitem__, map(id, weights)))


def capped_power_product(factors: Sequence[tuple[int, int]], cap: int) -> int | None:
    """The product of ``k**e`` over ``factors`` if it is at most ``cap``, else
    None.  k^e >= 2^(e * (k.bit_length() - 1)) for k >= 2 decides first, so
    no power much longer than ``cap`` is built."""
    if sum(e * max(k.bit_length() - 1, 0) for k, e in factors) >= cap.bit_length():
        return None
    product = math.prod(k**e for k, e in factors)
    return product if product <= cap else None


def built_once(cache: dict, key, build: Callable, *args):
    """``cache[key]``, made by ``build(*args)`` the first time ``key`` is
    asked for; every later call shares that one object.  Built values are
    never None."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build(*args)
    return value


def metrics(instance: GugpInstance | RelationalInstance) -> InstanceMetrics:
    """The instance's weight aggregates, one object derived per instance."""
    return instance.metrics
