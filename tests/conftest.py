"""Shared builders and hypothesis strategies for the test suite.

The strategies deliberately construct objects through the public
constructors, so every generated case also exercises validation.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from gugp_workbench import (
    GugpEdge,
    GugpInstance,
    Permutation,
)


def perm(*image: int) -> Permutation:
    return Permutation(tuple(image))


def identity(k: int) -> Permutation:
    return Permutation.identity(k)


def gugp(n: int, k: int, *edges: tuple) -> GugpInstance:
    """Edges given as (u, v, weight, permutation) tuples."""
    return GugpInstance(
        n, k, tuple(GugpEdge(u, v, Fraction(w), p) for u, v, w, p in edges)
    )


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
):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    m = draw(st.integers(min_value=1, max_value=max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        bump = draw(st.integers(min_value=1, max_value=n - 1))
        v = (u + bump) % n
        w = draw(rationals(signs))
        image = draw(st.permutations(tuple(range(1, k + 1))))
        edges.append(GugpEdge(u, v, w, Permutation(tuple(image))))
    return GugpInstance(n, k, tuple(edges))


@st.composite
def labelings_for(draw, n: int, k: int):
    return tuple(
        draw(st.integers(min_value=1, max_value=k)) for _ in range(n)
    )
