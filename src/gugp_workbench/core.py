"""Core types for games with permutation or relation constraints on edges.

Conventions used throughout the workbench:

* vertices are 0-indexed integers, labels are 1-indexed integers;
* edges are oriented (u, v) pairs; parallel edges are allowed, self-loops are
  not;
* all numeric quantities are exact ``fractions.Fraction`` values -- no
  floating point exists anywhere in this package;
* every type is immutable once constructed;
* the edge types (``GugpEdge``, ``RelEdge`` and ``reductions.T22Edge``) are
  slotted frozen dataclasses with the generated equality, hashing and
  ``repr``.  ``GugpEdge`` and ``RelEdge``, built once per edge line of large
  files, check their arguments in a hand-written ``__init__`` before they
  store them; ``T22Edge`` checks them in a ``__post_init__``.  Either way
  ``dataclasses.replace`` validates the new edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ValidationError

# A labeling is a plain tuple: entry i is the (1-indexed) label of vertex i.
Labeling = tuple[int, ...]


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

    def invert(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, img in enumerate(self.image, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))


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


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.  The
    hand-written ``__init__`` of ``GugpEdge`` and ``RelEdge`` stores through
    these: one C call per field, where a frozen dataclass's generated
    ``__init__`` makes one ``object.__setattr__`` call per field."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def check_instance(instance) -> None:
    """The rule every instance type (``GugpInstance``, ``RelationalInstance``,
    ``TwoToTwoInstance``) shares: ``edges`` is stored as a tuple, there is at
    least one vertex and every endpoint is below ``n``."""
    object.__setattr__(instance, "edges", tuple(instance.edges))
    if instance.n < 1:
        raise ValidationError("instance needs at least one vertex")
    for e in instance.edges:
        if e.u >= instance.n or e.v >= instance.n:
            raise ValidationError(
                f"edge ({e.u},{e.v}) references vertex >= n={instance.n}"
            )


@dataclass(frozen=True, slots=True, init=False)
class GugpEdge:
    """Oriented edge carrying a permutation constraint and a signed weight.

    The edge is satisfied by a labeling f iff pi(f(u)) = f(v).
    """

    u: int
    v: int
    weight: Fraction
    pi: Permutation

    def __init__(self, u: int, v: int, weight: Fraction, pi: Permutation):
        weight = edge_weight(u, v, weight)
        if weight.numerator == 0:
            raise ValidationError(f"zero-weight edge ({u},{v})")
        # slot descriptors store with one C call each, not object.__setattr__
        set_u, set_v, set_weight, set_pi = _GUGP_SETTERS
        set_u(self, u)
        set_v(self, v)
        set_weight(self, weight)
        set_pi(self, pi)


_GUGP_SETTERS = slot_setters(GugpEdge)


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
        for e in self.edges:
            # the image's length, not the ``size`` property: one call less per edge
            if len(e.pi.image) != k:
                raise ValidationError(
                    f"edge ({e.u},{e.v}) permutation size {e.pi.size} != k={k}"
                )

    @functools.cached_property
    def integer_weights(self) -> tuple[int, tuple[int, ...]]:
        """``scaled_weights`` over the edge weights in edge order, derived once."""
        return scaled_weights([e.weight for e in self.edges])

    def label_count(self, vertex: int) -> int:
        return self.k


@dataclass(frozen=True, slots=True, init=False)
class RelEdge:
    """Oriented edge carrying an arbitrary relation and a positive weight.

    The edge is satisfied by a labeling f iff (f(u), f(v)) is in the relation.
    """

    u: int
    v: int
    weight: Fraction
    rel: Relation

    def __init__(self, u: int, v: int, weight: Fraction, rel: Relation):
        weight = edge_weight(u, v, weight)
        if weight.numerator <= 0:
            raise ValidationError(f"relational edge ({u},{v}) needs positive weight")
        # slot descriptors store with one C call each, not object.__setattr__
        set_u, set_v, set_weight, set_rel = _REL_SETTERS
        set_u(self, u)
        set_v(self, v)
        set_weight(self, weight)
        set_rel(self, rel)


_REL_SETTERS = slot_setters(RelEdge)


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

    integer_weights = GugpInstance.integer_weights  # the same derivation

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
    holds every weight for the whole call.
    """
    distinct = dict(zip(map(id, weights), weights))
    scale = math.lcm(*(w.denominator for w in distinct.values()))
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


def metrics(instance: GugpInstance) -> InstanceMetrics:
    scale, weights = instance.integer_weights
    plus = sum(w for w in weights if w > 0)
    minus = sum(w for w in weights if w < 0)
    ratio = None if plus == 0 else Fraction(-minus, plus)
    w_plus, w_minus = Fraction(plus, scale), Fraction(minus, scale)
    return InstanceMetrics(w_plus, w_minus, Fraction(plus + minus, scale), ratio)
