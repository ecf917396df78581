"""Deterministic instance generators.

Each family consumes a single splitmix64 stream seeded with ``GenSpec.seed``.
The draw orders documented per family are normative: a given spec must yield
byte-identical files in any implementation.  All draws use ``below``: raw
64-bit output reduced by modulo.

Families:

* ``random-gugp``   -- n vertices, m edges with random endpoint pairs,
  Fisher-Yates permutations, and rational weights num/den with num, den drawn
  from [1..9].  With ``nwa`` every weight is negated; otherwise each edge is
  negated with probability 1/4 (one draw in [0..3], negative on 0), except
  that a ``max_ratio`` of 0 suppresses the sign draw entirely.  When
  ``max_ratio`` is set, whole instances are redrawn (continuing the stream)
  until the negative/positive ratio is defined and within the bound.
* ``random-tsp``    -- all pairs in lexicographic order, weights num/den from
  [1..9] each.
* ``planted-3col``  -- a hidden coloring (one draw in [1..3] per vertex,
  redrawn whole until two colors appear), then m distinct bichromatic edges
  by rejection; the planted coloring is returned alongside the 3-cut game it
  satisfies completely.
* ``random-t22``    -- optional planted labeling (one draw in [1..2k] per
  vertex), then per edge: endpoints, two Fisher-Yates permutations, and (when
  planting) a transposition fixing the planted pair into the block pairing.
  Weights are 1/1.

Endpoint draws are u = below(n), then v = below(n-1) bumped by one when
v >= u, giving a uniform ordered pair of distinct vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GugpEdge, GugpInstance, Labeling, Permutation, metrics
from .errors import UsageError
from .reductions import (
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    max3cut_instance,
    t_contains,
)
from .rng import SplitMix64

FAMILIES = ("random-gugp", "random-tsp", "planted-3col", "random-t22")
_RESAMPLE_BUDGET = 10_000


@dataclass(frozen=True)
class GenSpec:
    """A reproducible generation request.

    ``n`` is the vertex count; ``m`` the edge count (not used by
    random-tsp); ``k`` the label count (random-gugp) or half-size
    (random-t22); ``max_ratio`` bounds |negative|/positive weight
    (random-gugp only); ``nwa`` makes every weight negative (random-gugp
    only); ``satisfiable`` plants a fully satisfying labeling (random-t22
    only).
    """

    family: str
    seed: int
    n: int
    m: int | None = None
    k: int | None = None
    max_ratio: Fraction | None = None
    nwa: bool = False
    satisfiable: bool = False


@dataclass(frozen=True)
class GenResult:
    """Generated instance plus the planted witness when the family has one."""

    instance: object
    planted: Labeling | None = None


def _pair(stream: SplitMix64, n: int) -> tuple[int, int]:
    u = stream.below(n)
    v = stream.below(n - 1)
    if v >= u:
        v += 1
    return u, v


def _permutation(stream: SplitMix64, k: int) -> Permutation:
    image = list(range(1, k + 1))
    stream.shuffle(image)
    return Permutation(tuple(image))


def _weight(stream: SplitMix64) -> Fraction:
    num = 1 + stream.below(9)
    den = 1 + stream.below(9)
    return Fraction(num, den)


def _random_gugp(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or not spec.m or spec.m < 1 or not spec.k or spec.k < 1:
        raise UsageError("random-gugp needs n >= 2, m >= 1, k >= 1")
    if spec.nwa and spec.max_ratio is not None:
        raise UsageError(
            "ratio bounds do not apply to all-negative instances "
            "(the ratio is undefined without positive weight)"
        )
    draw_signs = not spec.nwa and spec.max_ratio != 0
    for _ in range(_RESAMPLE_BUDGET):
        edges = []
        for _ in range(spec.m):
            u, v = _pair(stream, spec.n)
            pi = _permutation(stream, spec.k)
            w = _weight(stream)
            if spec.nwa:
                w = -w
            elif draw_signs and stream.below(4) == 0:
                w = -w
            edges.append(GugpEdge(u, v, w, pi))
        instance = GugpInstance(spec.n, spec.k, tuple(edges))
        if spec.max_ratio is None:
            return GenResult(instance)
        ratio = metrics(instance).ratio
        if ratio is not None and ratio <= spec.max_ratio:
            return GenResult(instance)
    raise UsageError(
        f"could not meet ratio bound {spec.max_ratio} within "
        f"{_RESAMPLE_BUDGET} resamples"
    )


def _random_tsp(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 3:
        raise UsageError("random-tsp needs n >= 3")
    weights = tuple(
        (u, v, _weight(stream))
        for u in range(spec.n)
        for v in range(u + 1, spec.n)
    )
    return GenResult(TspInstance(spec.n, weights))


def _planted_3col(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or spec.m is None or spec.m < 1:
        raise UsageError("planted-3col needs n >= 2 and m >= 1")
    # feasibility ceiling: the balanced coloring maximizes bichromatic pairs
    base, extra = divmod(spec.n, 3)
    sizes = [base + (1 if i < extra else 0) for i in range(3)]
    ceiling = sizes[0] * sizes[1] + sizes[0] * sizes[2] + sizes[1] * sizes[2]
    if spec.m > ceiling:
        raise UsageError(
            f"no 3-coloring of {spec.n} vertices admits more than {ceiling} "
            f"bichromatic edges, {spec.m} requested"
        )
    for _ in range(_RESAMPLE_BUDGET):
        chi = tuple(1 + stream.below(3) for _ in range(spec.n))
        s1, s2, s3 = (chi.count(c) for c in (1, 2, 3))
        bichromatic = s1 * s2 + s1 * s3 + s2 * s3
        if spec.m <= bichromatic:
            break
    else:  # pragma: no cover - budget is enormous for feasible requests
        raise UsageError(
            "could not draw a coloring with enough bichromatic pairs"
        )
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    budget = _RESAMPLE_BUDGET * max(1, spec.m)
    while len(chosen) < spec.m:
        budget -= 1
        if budget < 0:  # pragma: no cover - same remark as above
            raise UsageError("could not collect enough bichromatic edges")
        u, v = _pair(stream, spec.n)
        pair = (min(u, v), max(u, v))
        if chi[pair[0]] == chi[pair[1]] or pair in seen:
            continue
        seen.add(pair)
        chosen.append(pair)
    return GenResult(max3cut_instance(spec.n, tuple(chosen)), chi)


def _random_t22(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or not spec.m or spec.m < 1 or not spec.k or spec.k < 2:
        raise UsageError("random-t22 needs n >= 2, m >= 1, k >= 2")
    width = 2 * spec.k
    planted = (
        tuple(1 + stream.below(width) for _ in range(spec.n))
        if spec.satisfiable
        else None
    )
    edges = []
    for _ in range(spec.m):
        u, v = _pair(stream, spec.n)
        pi_u = _permutation(stream, width)
        pi_v = _permutation(stream, width)
        if planted is not None:
            # swap pi_u's value at the planted left label with the block
            # partner of pi_v's value at the planted right label
            hit = pi_u.apply(planted[u])
            target = pi_v.apply(planted[v])
            if not t_contains(hit, target):
                image = list(pi_u.image)
                spot = image.index(target)
                image[planted[u] - 1], image[spot] = target, hit
                pi_u = Permutation(tuple(image))
        edges.append(T22Edge(u, v, Fraction(1), pi_u, pi_v))
    return GenResult(TwoToTwoInstance(spec.n, spec.k, tuple(edges)), planted)


def generate(spec: GenSpec) -> GenResult:
    """Produce the instance (and planted witness, if any) for a spec.

    Identical specs produce identical results; serialization of the result is
    therefore byte-stable.
    """
    if spec.family not in FAMILIES:
        raise UsageError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    if spec.family != "random-gugp" and (spec.nwa or spec.max_ratio is not None):
        raise UsageError("nwa/max_ratio only apply to random-gugp")
    if spec.family != "random-t22" and spec.satisfiable:
        raise UsageError("satisfiable only applies to random-t22")
    stream = SplitMix64(spec.seed)
    if spec.family == "random-gugp":
        return _random_gugp(spec, stream)
    if spec.family == "random-tsp":
        return _random_tsp(spec, stream)
    if spec.family == "planted-3col":
        return _planted_3col(spec, stream)
    return _random_t22(spec, stream)
