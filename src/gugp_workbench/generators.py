"""Deterministic instance generators.

Each family consumes a single splitmix64 stream seeded with ``GenSpec.seed``.
The draw orders documented per family are normative: a given spec must yield
byte-identical files in any implementation.  All draws are ``below``'s, raw
64-bit output reduced by modulo, made with ``below_each`` a bounded pass of
edges at a time and read back as columns, in the unchanged order.

Families:

* ``random-gugp``   -- n vertices, m edges with random endpoint pairs,
  Fisher-Yates permutations, and rational weights num/den with num, den drawn
  from [1..9].  With ``nwa`` every weight is negated; otherwise each edge is
  negated with probability 1/4 (one draw in [0..3], negative on 0), except
  that a ``max_ratio`` of 0 suppresses the sign draw entirely.  When
  ``max_ratio`` is set, whole instances are redrawn (continuing the stream)
  until the negative/positive ratio is defined and within the bound; after
  10,000 draws, or once the draws' m*k sum passes ten times
  ``GEN_SIZE_CAP``, ``UsageError`` names the number of draws made.
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

A weight draw is num = 1 + below(9), then den = 1 + below(9); it picks an
entry of one module-level table of the 81 ``Fraction(num, den)`` values (and
of a second table of their negations), so no ``Fraction`` is built per edge.
Within one ``generate`` call every distinct permutation image is built, and
so validated, once and shared by the edges that draw it: a permutation is
keyed by its k - 1 shuffle draws alone, which Fisher-Yates maps one-to-one to
images, and each pass's new images are built in one ``core.permutations``
call.  Planted random-t22 ``pi_u`` images are the exception: they are built
per edge, one ``core.permutations`` call per pass, and not shared.  Neither
changes what is drawn or in which order.

Before any draw, a size above ``GEN_SIZE_CAP`` raises ``CapacityError``:
m*k (random-gugp), n(n-1)/2 (random-tsp), n + m (planted-3col), or 4*m*k
(random-t22, plus n when planting).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .core import GugpInstance, Labeling, Permutation, gugp_edges, metrics, permutations
from .errors import CapacityError, UsageError
from .reductions import (
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    max3cut_instance,
    t_contains,
)
from .rng import SplitMix64, fisher_yates

_RESAMPLE_BUDGET = 10_000
GEN_SIZE_CAP = 100_000
# random-gugp stops redrawing for a ratio bound once this many times the size
# cap (in m*k units) has been drawn over all resamples
_RESAMPLE_WORK = 10

# entry 9 * (num - 1) + (den - 1) is num/den, for num and den in [1..9]
_WEIGHTS = tuple(Fraction(num, den) for num in range(1, 10) for den in range(1, 10))
_NEGATED_WEIGHTS = tuple(-w for w in _WEIGHTS)
# the table a sign draw in [0..3] picks, negative on 0; nwa picks 0, no draw 1
_SIGNED_WEIGHTS = (_NEGATED_WEIGHTS, _WEIGHTS, _WEIGHTS, _WEIGHTS)
# edges drawn per pass, so a pass's draw columns stay small whatever m is
_PASS_EDGES = 64


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


def _require_size(spec: GenSpec, size: int) -> None:
    if size > GEN_SIZE_CAP:
        raise CapacityError(f"{spec.family} size {size} exceeds cap {GEN_SIZE_CAP}")


def _edge_passes(stream: SplitMix64, m: int, edge_bounds: list[int]):
    """Per pass of up to ``_PASS_EDGES`` edges, each drawing ``edge_bounds``:
    the u and v columns, v bumped by one when v >= u, and the other columns."""
    step = len(edge_bounds)
    for start in range(0, m, _PASS_EDGES):
        draws = stream.below_each(edge_bounds * min(_PASS_EDGES, m - start))
        us, vs, *columns = (draws[t::step] for t in range(step))
        yield us, list(map(operator.add, vs, map(operator.ge, vs, us))), columns


Perms = dict[tuple[int, ...], Permutation]


def _permutations(columns: list, rows: int, k: int, perms: Perms) -> list[Permutation]:
    """Per row, the permutation that its k - 1 shuffle draws, the first k - 1
    ``columns``, make; ``perms`` is keyed by those draws alone, which
    Fisher-Yates maps one-to-one to images, so each image is built and
    checked once."""
    keys = list(zip(*columns[: k - 1])) if k > 1 else [()] * rows
    new = list(set(keys).difference(perms))
    images = [tuple(fisher_yates(list(range(1, k + 1)), key)) for key in new]
    perms.update(zip(new, permutations(images)))
    return list(map(perms.__getitem__, keys))


def _random_gugp(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or not spec.m or spec.m < 1 or not spec.k or spec.k < 1:
        raise UsageError("random-gugp needs n >= 2, m >= 1, k >= 1")
    if spec.nwa and spec.max_ratio is not None:
        raise UsageError(
            "ratio bounds do not apply to all-negative instances "
            "(the ratio is undefined without positive weight)"
        )
    size = spec.m * spec.k
    _require_size(spec, size)
    draw_signs = not spec.nwa and spec.max_ratio != 0
    n, k = spec.n, spec.k
    edge_bounds = [n, n - 1, *range(k, 1, -1), 9, 9] + ([4] if draw_signs else [])
    perms: Perms = {}
    drawn = 0
    while drawn < _RESAMPLE_BUDGET and drawn * size <= _RESAMPLE_WORK * GEN_SIZE_CAP:
        drawn += 1
        us, vs, weights, pis = [], [], [], []
        for u, v, columns in _edge_passes(stream, spec.m, edge_bounds):
            us += u
            vs += v
            pis += _permutations(columns, len(u), k, perms)
            index = map(operator.add, map((9).__mul__, columns[k - 1]), columns[k])
            signs = columns[k + 1] if draw_signs else repeat(int(not spec.nwa))
            tables = map(_SIGNED_WEIGHTS.__getitem__, signs)
            weights += map(tuple.__getitem__, tables, index)
        edges = gugp_edges(us, vs, weights, pis)
        instance = GugpInstance(spec.n, spec.k, tuple(edges))
        if spec.max_ratio is None:
            return GenResult(instance)
        ratio = metrics(instance).ratio
        if ratio is not None and ratio <= spec.max_ratio:
            return GenResult(instance)
    raise UsageError(
        f"could not meet ratio bound {spec.max_ratio} within {drawn} resamples"
    )


def _random_tsp(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 3:
        raise UsageError("random-tsp needs n >= 3")
    _require_size(spec, spec.n * (spec.n - 1) // 2)
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    draws = stream.below_each([9, 9] * len(pairs))
    index = map(operator.add, map((9).__mul__, draws[0::2]), draws[1::2])
    weights = tuple((u, v, _WEIGHTS[i]) for (u, v), i in zip(pairs, index))
    return GenResult(TspInstance(spec.n, weights))


def _planted_3col(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or spec.m is None or spec.m < 1:
        raise UsageError("planted-3col needs n >= 2 and m >= 1")
    _require_size(spec, spec.n + spec.m)
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
        chi = tuple(1 + c for c in stream.below_each([3] * spec.n))
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
        u = stream.below(spec.n)
        v = stream.below(spec.n - 1)
        pair = (u, v + 1) if v >= u else (v, u)
        if chi[pair[0]] == chi[pair[1]] or pair in seen:
            continue
        seen.add(pair)
        chosen.append(pair)
    return GenResult(max3cut_instance(spec.n, tuple(chosen)), chi)


def _random_t22(spec: GenSpec, stream: SplitMix64) -> GenResult:
    if spec.n < 2 or not spec.m or spec.m < 1 or not spec.k or spec.k < 2:
        raise UsageError("random-t22 needs n >= 2, m >= 1, k >= 2")
    _require_size(spec, 4 * spec.m * spec.k + (spec.n if spec.satisfiable else 0))
    n, width = spec.n, 2 * spec.k
    planted = None
    if spec.satisfiable:
        planted = tuple(1 + label for label in stream.below_each([width] * n))
    edge_bounds = [n, n - 1, *range(width, 1, -1), *range(width, 1, -1)]
    edges = []
    perms: Perms = {}
    one = Fraction(1)
    for us, vs, columns in _edge_passes(stream, spec.m, edge_bounds):
        pis_u = _permutations(columns, len(us), width, perms)
        pis_v = _permutations(columns[width - 1 :], len(us), width, perms)
        if planted is not None:
            images = []
            for u, v, pi_u, pi_v in zip(us, vs, pis_u, pis_v):
                # swap pi_u's value at the planted left label with the block
                # partner of pi_v's value at the planted right label
                hit = pi_u.apply(planted[u])
                target = pi_v.apply(planted[v])
                image = pi_u.image
                if not t_contains(hit, target):
                    swapped = list(image)
                    swapped[planted[u] - 1], swapped[image.index(target)] = target, hit
                    image = tuple(swapped)
                images.append(image)
            pis_u = permutations(images)
        edges += map(T22Edge, us, vs, repeat(one), pis_u, pis_v)
    return GenResult(TwoToTwoInstance(spec.n, spec.k, tuple(edges)), planted)


_BUILDERS = {
    "random-gugp": _random_gugp,
    "random-tsp": _random_tsp,
    "planted-3col": _planted_3col,
    "random-t22": _random_t22,
}
FAMILIES = tuple(_BUILDERS)


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
    return _BUILDERS[spec.family](spec, SplitMix64(spec.seed))
