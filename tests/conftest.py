"""Shared builders and hypothesis strategies for the test suite.

The strategies deliberately construct objects through the public
constructors, so every generated case also exercises validation.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gugp_workbench import (
    GugpEdge,
    GugpInstance,
    InstanceMetrics,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
)


@pytest.fixture
def digit_limit():
    """The interpreter's default int-digit limit, set for one test."""
    held = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(held)


def perm(*image: int) -> Permutation:
    return Permutation(tuple(image))


def identity(k: int) -> Permutation:
    return Permutation.identity(k)


def gugp(n: int, k: int, *edges: tuple) -> GugpInstance:
    """Edges given as (u, v, weight, permutation) tuples."""
    return GugpInstance(
        n, k, tuple(GugpEdge(u, v, Fraction(w), p) for u, v, w, p in edges)
    )


def ref_metrics(instance):
    """The per-edge ``Fraction`` sums ``core.metrics`` is held to."""
    w_plus = Fraction(0)
    w_minus = Fraction(0)
    for e in instance.edges:
        if e.weight > 0:
            w_plus += e.weight
        else:
            w_minus += e.weight
    ratio = None if w_plus == 0 else abs(w_minus) / w_plus
    return InstanceMetrics(w_plus, w_minus, w_plus + w_minus, ratio)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def permutations(draw, k: int | None = None, max_k: int = 6):
    size = k if k is not None else draw(st.integers(min_value=1, max_value=max_k))
    image = draw(st.permutations(tuple(range(1, size + 1))))
    return Permutation(tuple(image))


@st.composite
def rationals(draw, signs: str = "any"):
    num = draw(st.integers(min_value=1, max_value=60))
    den = draw(st.integers(min_value=1, max_value=60))
    value = Fraction(num, den)
    if signs == "negative":
        return -value
    if signs == "positive":
        return value
    return value if draw(st.booleans()) else -value


@st.composite
def gugp_instances(
    draw,
    signs: str = "any",
    max_n: int = 5,
    max_k: int = 4,
    max_m: int = 8,
    min_k: int = 1,
    min_m: int = 1,
):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        bump = draw(st.integers(min_value=1, max_value=n - 1))
        v = (u + bump) % n
        w = draw(rationals(signs))
        # an edge may take an earlier edge's permutation object, or an equal
        # but distinct copy of it, as parsed and generated games do
        share = draw(st.sampled_from(["fresh", "same", "copy"])) if edges else "fresh"
        if share == "fresh":
            image = draw(st.permutations(tuple(range(1, k + 1))))
            pi = Permutation(tuple(image))
        else:
            pi = draw(st.sampled_from(edges)).pi
            if share == "copy":
                pi = Permutation(pi.image)
        edges.append(GugpEdge(u, v, w, pi))
    return GugpInstance(n, k, tuple(edges))


@st.composite
def relational_instances(draw, min_m: int = 1):
    n = draw(st.integers(min_value=2, max_value=5))
    bipartite = draw(st.booleans())
    k1 = draw(st.integers(min_value=1, max_value=3))
    k2 = draw(st.integers(min_value=1, max_value=3)) if bipartite else k1
    sides = None
    if bipartite:
        sides = ("V",) + tuple(draw(st.sampled_from("VW")) for _ in range(n - 2)) + ("W",)
    edges = []
    for _ in range(draw(st.integers(min_value=min_m, max_value=6))):
        if bipartite:
            u = draw(st.sampled_from([v for v in range(n) if sides[v] == "V"]))
            v = draw(st.sampled_from([v for v in range(n) if sides[v] == "W"]))
        else:
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = (u + draw(st.integers(min_value=1, max_value=n - 1))) % n
        pairs = draw(
            st.frozensets(
                st.tuples(
                    st.integers(min_value=1, max_value=k1),
                    st.integers(min_value=1, max_value=k2),
                )
            )
        )
        edges.append(RelEdge(u, v, draw(rationals("positive")), Relation(k1, k2, pairs)))
    return RelationalInstance(n, k1, k2, tuple(edges), sides)


@st.composite
def labelings_for(draw, n: int, k: int):
    return tuple(
        draw(st.integers(min_value=1, max_value=k)) for _ in range(n)
    )
