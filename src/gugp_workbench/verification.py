"""Machine verification of the structural claims behind each construction.

Every check enumerates its claim exhaustively (never sampling) and returns a
``VerifyReport`` holding the counterexample witnesses and the number of
cases inspected; its PASS/FAIL verdict is read off the witnesses.  Reports
are deterministic: witnesses appear in scan order (bundle index, then label
pair / labeling).

Checks never trust metadata produced by the reductions: the indicator check
reads each bundle's expected 0/1 weights off the source game's own relation
(``all_coords_differ_relation``, a two-to-two game's ``relations`` tuple), which
neither gadget builder reads, and gadget metrics are compared against one
rule in (k, d), the label count and the relation's per-label degree.

A gadget's bundles are its ``BundleMap``: ``source_count`` runs of ``size``
consecutive edges, one run per source edge, in source order.  Each bundle
check reads only what it states.  The exactly-one check reads each
bundle's images label by label and no weight; the indicator check fills a
satisfied-weight table per bundle and compares it row by row.  Both derive
once per run of identical bundles (the same permutation objects, in order,
as in every pwt1 gadget, and for the indicator the same weights) and report
the failing cells of a run under each bundle's own index.  ``CASES=`` still
counts k^2 label pairs per bundle, and ``case_cap`` is an upper bound on the
edge looks performed.  At most ``MAX_RECORDED_WITNESSES`` witnesses are ever
collected.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .core import (
    GugpEdge,
    GugpInstance,
    Labeling,
    Relation,
    RelationalInstance,
    metrics,
)
from .errors import CapacityError, UsageError, ValidationError
from .evaluation import (
    Objective,
    require_objective,
    satisfied_weight,
)
from .fileformat import fmt_fraction
from .reductions import (
    BundleMap,
    TspInstance,
    TwoToTwoInstance,
    all_coords_differ_relation,
    labeling_to_tour,
    tour_length,
    tour_to_labeling,
    tour_weight,
    tsp_to_min_nwa,
)
from .solvers import (
    DEFAULT_BRUTE_CAP,
    Layout,
    Leaf,
    brute_force,
    brute_force_relational,
    label_space,
    local_search_half,
    scan,
)

DEFAULT_CASE_CAP = 10_000_000
MAX_RECORDED_WITNESSES = 50

# (bundle, labels) locate a counterexample; expected/actual say how it fails.
Witness = tuple[object, object, object, object]


@dataclass(frozen=True)
class VerifyReport:
    """A claim passes exactly when it has no witness.  Witnesses and notes
    may be any iterables; the first ``MAX_RECORDED_WITNESSES`` witnesses and
    every note are kept as tuples."""

    claim: str
    cases: int
    witnesses: tuple[Witness, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        kept = tuple(itertools.islice(self.witnesses, MAX_RECORDED_WITNESSES))
        object.__setattr__(self, "witnesses", kept)
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _bundle_walk(
    gadget: GugpInstance, bundles: BundleMap, claim: str, case_cap: int
) -> Iterator[tuple[int, tuple[GugpEdge, ...], bool]]:
    """Yield ``(bundle, edges, fresh)``, one bundle at a time.

    This reads the ``BundleMap`` layout whole: bundle i is
    ``gadget.edges[i * size:(i + 1) * size]``, and ``source_count * size``
    must equal the gadget's edge count.  The one other reader, ``verify`` in
    the CLI, reads only each bundle's first edge: the pwt1 source's
    endpoints, and the pwt-half endpoints it matches to the source's.

    ``fresh`` is false for a bundle whose edges carry the same permutation
    objects, in order, as the previous bundle's, so a check may reuse what
    it derived from them: ids are safe keys because the gadget holds every
    permutation for the whole call.  Every bundle's edges must still share
    one vertex pair.  The cap is an upper bound on the edge looks performed:
    k per edge to read a bundle plus k^2 label pairs to judge it, counted
    for every bundle whether it is fresh or not:
    ``source_count * (k * size + k^2)``.
    """
    count, size = bundles.source_count, bundles.size
    if count * size != len(gadget.edges):
        raise ValidationError(
            f"{count} bundles of {size} edges do not cover the gadget's "
            f"{len(gadget.edges)} edges"
        )
    k = gadget.k
    looks = count * (k * size + k * k)
    if looks > case_cap:
        raise CapacityError(f"{claim} check needs {looks} edge looks > cap {case_cap}")
    key: list[int] = []
    for i in range(count):
        edges = gadget.edges[i * size : (i + 1) * size]
        u, v = edges[0].u, edges[0].v
        if any(e.u != u or e.v != v for e in edges):
            raise ValidationError(f"bundle {i} mixes edges of different vertex pairs")
        bundle_key = [id(e.pi) for e in edges]
        fresh = bundle_key != key
        key = bundle_key
        yield i, edges, fresh


def check_bundle_exactly_one(
    gadget: GugpInstance,
    bundles: BundleMap,
    case_cap: int = DEFAULT_CASE_CAP,
) -> VerifyReport:
    """Every bundle must satisfy exactly one of its edges per label pair:
    at each label a, the bundle's images of a are [1..k] in some order.

    Only a label whose images fail that test is counted cell by cell; no
    weight is read.  A bundle with the previous bundle's permutation objects
    (see ``_bundle_walk``) reuses its failing cells, reported under its own
    index.  ``case_cap`` is an upper bound on the edge looks performed:
    k * |bundle| + k^2 per bundle.
    """
    k = gadget.k
    labels = list(range(1, k + 1))
    witnesses: list[Witness] = []
    failing: list[tuple[object, object, object]] = []
    for i, edges, fresh in _bundle_walk(gadget, bundles, "exactly-one", case_cap):
        room = MAX_RECORDED_WITNESSES - len(witnesses)
        if fresh:
            # column a holds the bundle's images of label a
            columns = zip(*(e.pi.image for e in edges))
            cells = (
                ((a, b), 1, count)
                for a, column in enumerate(columns, 1)
                if sorted(column) != labels
                for b, count in enumerate(map(column.count, labels), 1)
                if count != 1
            )
            failing = list(itertools.islice(cells, room))
        witnesses.extend((i, *cell) for cell in failing[:room])
    return VerifyReport("bundle-exactly-one", k * k * bundles.source_count, witnesses)


def coordinate_collision_predicate(fold: int) -> Callable[[int], Relation]:
    """Indicator input for shift-gadget bundles: every bundle's unsatisfied
    weight should be 1 exactly when the two label tuples share a coordinate,
    i.e. off the repeated 3-cut game's all-coordinates-differ relation."""
    differ = all_coords_differ_relation(fold)
    return lambda _bundle: differ


def pair_block_predicate(source: TwoToTwoInstance) -> tuple[Relation, ...]:
    """Indicator input for pair-block bundles: bundle i's unsatisfied weight
    should be 1 exactly off source edge i's relation, so this is the
    source's own ``relations`` tuple, indexed by bundle."""
    return source.relations


def check_indicator_weights(
    gadget: GugpInstance,
    bundles: BundleMap,
    relation_of: tuple[Relation, ...] | Callable[[int], Relation],
    case_cap: int = DEFAULT_CASE_CAP,
) -> VerifyReport:
    """Each bundle's unsatisfied weight must be exactly 1 off the bundle's
    relation and exactly 0 on it.

    ``relation_of`` is a tuple of one relation per bundle, such as
    ``pair_block_predicate``'s, or a lookup called with the bundle index.  A
    tuple whose length is not the bundle count raises ``ValidationError``
    naming both counts before any bundle is read.
    Labels range over [1..k]; a relation narrower than that raises
    ``ValidationError`` naming the first label pair out of its range.  Each
    fresh bundle fills its own satisfied-weight table from its permutation
    edges, and each row is compared whole with one expected row built from
    the relation's pairs.  A bundle with the previous bundle's permutation
    objects (see ``_bundle_walk``) and integer weights reuses its table, and
    under the same relation object its failing cells too, reported under its
    own index.  ``case_cap`` is an upper bound on the edge looks performed:
    k * |bundle| + k^2 per bundle.
    """
    if isinstance(relation_of, tuple):
        if len(relation_of) != bundles.source_count:
            raise ValidationError(
                f"gadget has {bundles.source_count} bundles but the source has "
                f"{len(relation_of)} edges"
            )
        relation_of = relation_of.__getitem__
    k, size = gadget.k, bundles.size
    scale, weights = gadget.integer_weights
    witnesses: list[Witness] = []
    failing: list[tuple[object, object, object]] = []
    part: tuple[int, ...] = ()
    seen_rel = None
    for i, edges, fresh in _bundle_walk(gadget, bundles, "indicator", case_cap):
        rel = relation_of(i)
        if k > rel.k1 or k > rel.k2:
            a, b = (1, rel.k2 + 1) if k > rel.k2 else (rel.k1 + 1, 1)
            raise ValidationError(
                f"label pair ({a},{b}) out of range [1..{rel.k1}]x[1..{rel.k2}]"
            )
        room = MAX_RECORDED_WITNESSES - len(witnesses)
        bundle_weights = weights[i * size : (i + 1) * size]
        if fresh or bundle_weights != part:
            part, total, seen_rel = bundle_weights, sum(bundle_weights), None
            # table[a][b]: the bundle's weight satisfied at labels (a, b)
            table = [[0] * (k + 1) for _ in range(k + 1)]
            for e, w in zip(edges, part):
                for a, b in enumerate(e.pi.image, 1):
                    table[a][b] += w
        if rel is not seen_rel:
            seen_rel = rel
            # satisfied weight: the whole bundle on the relation, one unit less off it
            expected = [[0] + [total - scale] * k for _ in range(k + 1)]
            for a, b in rel.pairs:
                if a <= k and b <= k:
                    expected[a][b] = total
            cells = (
                ((a, b), Fraction(total - want, scale), Fraction(total - got, scale))
                for a in range(1, k + 1)
                if table[a] != expected[a]
                for b, (got, want) in enumerate(zip(table[a], expected[a]))
                if got != want
            )
            failing = list(itertools.islice(cells, room))
        witnesses.extend((i, *cell) for cell in failing[:room])
    return VerifyReport(
        "bundle-indicator-weights", k * k * bundles.source_count, witnesses
    )


def check_gadget_metrics(
    gadget: GugpInstance, family: str, param: int, source_edges: int
) -> VerifyReport:
    """Compare instance metrics against the one rule for a gadget whose
    bundles are exact 0/1 indicators of a d-to-d relation on k labels.

    ``family`` names (k, d): "pwt1" at param = fold l is (3^l, 2^l), and
    "pwt-half" at param = half-size K is (2K, 2).  Over m source edges the
    rule is sigma = (k - d)/(k - 1) * m, W+ = d * sigma, W- = -(d - 1) *
    sigma, and the ratio 1 - 1/d.
    """
    if family == "pwt1":
        k, d = 3**param, 2**param
    elif family == "pwt-half":
        k, d = 2 * param, 2
    else:
        raise UsageError(f"unknown gadget family {family!r}")
    sigma = Fraction(k - d, k - 1) * source_edges
    expected = {
        "w_plus": d * sigma,
        "w_minus": -(d - 1) * sigma,
        "sigma": sigma,
        "ratio": Fraction(d - 1, d),
    }
    actual = asdict(metrics(gadget))
    witnesses: list[Witness] = [
        (None, name, expected[name], actual[name])
        for name in ("w_plus", "w_minus", "sigma", "ratio")
        if expected[name] != actual[name]
    ]
    return VerifyReport(f"{family}-metrics", len(expected), witnesses)


def check_value_transfer(
    source: RelationalInstance,
    gadget: GugpInstance,
    cap: int = DEFAULT_BRUTE_CAP,
) -> VerifyReport:
    """The gadget's exhaustive min-PWT optimum must equal
    (1 - source optimum) * |source edges| / sigma(gadget) exactly.

    The source optimum here is the maximum fraction of satisfied source
    constraints (edges counted uniformly, since each bundle contributes a 0/1
    indicator regardless of any source edge weight).
    """
    src = brute_force_relational(source, cap)
    gad = brute_force(gadget, Objective.MIN_PWT, cap)
    expected = (1 - src.value) * len(source.edges) / metrics(gadget).sigma
    witnesses: list[Witness] = []
    if gad.value != expected:
        witnesses.append((None, "min-pwt-optimum", expected, gad.value))
    notes = (
        f"SOURCE_OPTIMUM={fmt_fraction(src.value)}",
        f"GADGET_MIN_PWT={fmt_fraction(gad.value)}",
    )
    return VerifyReport("value-transfer", src.visited + gad.visited, witnesses, notes)


def _strip_scan(
    layout: Layout,
    leaves_all: Iterator[Leaf],
    leaves_pos: Iterator[Leaf],
    sigma: int,
    w_plus: int,
    scale: int,
) -> tuple[int, list[Witness], tuple[int, Labeling], tuple[int, Labeling]]:
    """One joint walk over the all-edges and positive-edges leaves of one
    compiled layout, whose rows it reads and never writes.

    Returns the cases, the first ``MAX_RECORDED_WITNESSES`` sandwich
    witnesses in scan order, and the first minimum unsatisfied weight with
    its labeling for each table set.  A leaf's whole row is checked at once,
    lane against lane; only a failing row met while there is room is
    unpacked and walked labeling by labeling to record its witnesses, and a
    row is unpacked for its minimum only when that beats the incumbent.
    """
    neg_total = w_plus - sigma
    block, bias, guards = layout.block, layout.bias, layout.guards
    reached = layout.lane_test()
    # row_pos - row holds the gaps, in [-2 bias, 2 bias], lanes once shifted
    shift = 2 * bias * layout.ones
    best_orig: tuple[int, Labeling] | None = None
    best_stripped: tuple[int, Labeling] | None = None
    witnesses: list[Witness] = []
    cases = 0
    for (prefix, base, row), (_, base_pos, row_pos) in zip(leaves_all, leaves_pos):
        cases += len(block)
        # W'(f) - W(f) = c - gap(f), so the per-labeling sandwich
        # W(f) <= W'(f) <= W(f) + |W-| holds for the whole row exactly when
        # every gap lies in [c - |W-|, c]
        c = (w_plus - base_pos) - (sigma - base)
        gaps, room = row_pos - row + shift, MAX_RECORDED_WITNESSES - len(witnesses)
        low, high = c - neg_total + 2 * bias, c + 1 + 2 * bias
        if room and (reached(gaps, low) != guards or reached(gaps, high)):
            unsat = map((sigma - base + bias).__sub__, layout.lanes(row))
            unsat_pos = map((w_plus - base_pos + bias).__sub__, layout.lanes(row_pos))
            for t, u_all, u_pos in zip(block, unsat, unsat_pos):
                if not u_all <= u_pos:
                    pair = (Fraction(u_all, scale), Fraction(u_pos, scale))
                    witnesses.append((None, prefix + t, "W(f) <= W'(f)", pair))
                if not u_pos <= u_all + neg_total:
                    pair = (Fraction(u_pos, scale), Fraction(u_all, scale))
                    witnesses.append((None, prefix + t, "W'(f) <= W(f) + |W-|", pair))
                if len(witnesses) >= MAX_RECORDED_WITNESSES:
                    del witnesses[MAX_RECORDED_WITNESSES:]
                    break
        # the minimum unsatisfied weight sits at the row's first maximum
        if best_orig is None or reached(row, sigma - base - best_orig[0] + 1 + bias):
            top, j = layout.top(row)
            best_orig = (sigma - base - top, prefix + block[j])
        if best_stripped is None or reached(
            row_pos, w_plus - base_pos - best_stripped[0] + 1 + bias
        ):
            top, j = layout.top(row_pos)
            best_stripped = (w_plus - base_pos - top, prefix + block[j])
    assert best_orig is not None and best_stripped is not None
    return cases, witnesses, best_orig, best_stripped


def check_strip_bounds(
    instance: GugpInstance, cap: int = DEFAULT_BRUTE_CAP
) -> VerifyReport:
    """Dropping negative edges shifts the minimum unsatisfied weight by at
    most |total negative weight|, never downward.

    Per labeling f, with W(f) the unsatisfied weight in the original and
    W'(f) in the stripped instance, the check asserts
    W(f) <= W'(f) <= W(f) + |W-| during one joint enumeration, then compares
    the two minima the same way.  The normalized one-sided bounds
    (stripped-optimum/W+ vs original-optimum/sigma) are only reported in the
    notes: the upper one genuinely fails for instances whose optimum value is
    negative.
    """
    require_objective(instance, Objective.MIN_PWT)
    scale, weights = instance.integer_weights
    sigma = sum(weights)
    w_plus = sum(w for w in weights if w > 0)
    neg_total = w_plus - sigma
    # the solvers' gate refuses an over-cap scan before it starts
    space, domains = label_space(instance, cap)
    # every edge in one table set, positive edges in another, on one layout
    layout, leaves_all = scan(instance, domains)
    _, leaves_pos = scan(instance, domains, positive=True)
    cases, witnesses, orig, stripped = _strip_scan(
        layout, leaves_all, leaves_pos, sigma, w_plus, scale
    )
    (best_orig, best_orig_label), (best_stripped, best_stripped_label) = orig, stripped
    min_orig, min_stripped = Fraction(best_orig, scale), Fraction(best_stripped, scale)

    # re-derive the scan's case count and its witness's weight without it
    if cases != space:
        witnesses.append((None, "case-count", space, cases))
    rescored = Fraction(sigma, scale) - satisfied_weight(instance, best_orig_label)
    if rescored != min_orig:
        witnesses.append((None, "witness-rescore", min_orig, rescored))

    if not best_orig <= best_stripped:
        witnesses.append(
            (None, "optimum", "W(f*) <= W'(f')", (min_orig, min_stripped))
        )
    if not best_stripped <= best_orig + neg_total:
        witnesses.append(
            (None, "optimum", "W'(f') <= W(f*) + |W-|", (min_stripped, min_orig))
        )

    val_orig = Fraction(best_orig, sigma)
    val_stripped = Fraction(best_stripped, w_plus)
    rho = Fraction(neg_total, w_plus)
    lower_ok = val_stripped >= (1 - rho) * val_orig
    upper_ok = val_stripped <= val_orig + rho
    notes = (
        f"MIN_UNSAT_ORIGINAL={fmt_fraction(min_orig)}",
        f"MIN_UNSAT_STRIPPED={fmt_fraction(min_stripped)}",
        f"VAL_ORIGINAL={fmt_fraction(val_orig)}",
        f"VAL_STRIPPED={fmt_fraction(val_stripped)}",
        f"NORMALIZED_LOWER={'HOLDS' if lower_ok else 'FAILS'}",
        f"NORMALIZED_UPPER={'HOLDS' if upper_ok else 'FAILS'}",
        f"NORMALIZED_UPPER_BOUND={fmt_fraction(val_orig + rho)}",
        f"WITNESS_ORIGINAL={','.join(map(str, best_orig_label))}",
        f"WITNESS_STRIPPED={','.join(map(str, best_stripped_label))}",
    )
    return VerifyReport("strip-weight-sandwich", cases, witnesses, notes)


def check_half_guarantee(
    instance: GugpInstance,
    cap: int = DEFAULT_BRUTE_CAP,
    seed: int | None = None,
) -> VerifyReport:
    """Local search must reach max-NWA value >= 1/2, and at least half of the
    exhaustive optimum whenever the label space fits under the cap.

    Runs that take more improvement steps than the instance has vertices are
    noted, never failed.
    """
    result = local_search_half(instance, seed=seed)
    witnesses: list[Witness] = []
    notes = [f"VAL={fmt_fraction(result.value)}", f"ITERATIONS={result.visited}"]
    if result.value < Fraction(1, 2):
        witnesses.append((None, result.labeling, Fraction(1, 2), result.value))
    if result.visited > instance.n:
        notes.append(f"ITERATIONS_EXCEED_VERTICES={result.visited}>{instance.n}")
    cases = result.visited
    try:
        optimum = brute_force(instance, Objective.MAX_NWA, cap)
    except CapacityError:
        notes.append("OPTIMUM=SKIPPED-CAPACITY")
    else:
        cases += optimum.visited
        if result.value < optimum.value / 2:
            witnesses.append(
                (None, result.labeling, optimum.value / 2, result.value)
            )
        notes.append(f"OPTIMUM={fmt_fraction(optimum.value)}")
    return VerifyReport("local-search-half-guarantee", cases, witnesses, notes)


def exhaustive_tsp_optimum(tsp: TspInstance) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum tour weight by scanning all tours that fix vertex 0 first
    (the first one found wins ties)."""
    scale, dist = tsp.distances
    tours = ((0,) + rest for rest in itertools.permutations(range(1, tsp.n)))
    best = min(tours, key=functools.partial(tour_length, dist))
    return Fraction(tour_length(dist, best), scale), best


def check_tsp_equivalence(
    tsp: TspInstance, cap: int = DEFAULT_BRUTE_CAP
) -> VerifyReport:
    """The exhaustive tour optimum must equal the encoded instance's
    exhaustive minimum |satisfied weight|, and the two witnesses must map to
    each other through the tour/labeling converters."""
    # n^n labelings >= (n-1)! tours: the solver's cap also bounds the tour scan
    encoded, _ = tsp_to_min_nwa(tsp)
    brute = brute_force(encoded, Objective.MIN_NWA, cap)
    opt_weight, opt_tour = exhaustive_tsp_optimum(tsp)
    neg_total = -metrics(encoded).sigma
    brute_abs = brute.value * neg_total
    witnesses: list[Witness] = []
    notes = [
        f"TSP_OPTIMUM={fmt_fraction(opt_weight)}",
        f"ENCODED_MIN_ABS_SAT={fmt_fraction(brute_abs)}",
    ]
    if opt_weight != brute_abs:
        witnesses.append((None, "optimum", opt_weight, brute_abs))
    # witness round trip, both directions
    lifted = tour_to_labeling(tsp, opt_tour)
    lifted_abs = abs(satisfied_weight(encoded, lifted))
    if lifted_abs != opt_weight:
        witnesses.append((None, opt_tour, opt_weight, lifted_abs))
    if sorted(brute.labeling) == list(range(1, tsp.n + 1)):
        recovered = labeling_to_tour(tsp, brute.labeling)
        recovered_weight = tour_weight(tsp, recovered)
        if recovered_weight != brute_abs:
            witnesses.append((None, brute.labeling, brute_abs, recovered_weight))
    else:
        # possible only when some degenerate labeling ties the optimum at M
        notes.append("ENCODED_WITNESS=NON-BIJECTIVE-TIE")
    cases = math.factorial(tsp.n - 1) + brute.visited
    return VerifyReport("tsp-equivalence", cases, witnesses, notes)


def isolated_left_vertices(instance: RelationalInstance) -> tuple[int, ...]:
    """V-side vertices with no incident edges (skipped by ``smoothness``)."""
    if instance.sides is None:
        raise ValidationError("smoothness applies to bipartite instances")
    seen = {e.u for e in instance.edges}
    return tuple(
        v
        for v in range(instance.n)
        if instance.sides[v] == "V" and v not in seen
    )


def smoothness(instance: RelationalInstance) -> Fraction:
    """Largest fraction, over V-side vertices u and label pairs i < j, of
    u's incident edges whose projection merges i and j.

    Requires a bipartite instance whose every relation is a projection (each
    left label relates to exactly one right label).  Edges count by
    multiplicity and weights are ignored.  Bijective projections merge
    nothing, so unique-game style instances measure exactly 0.

    Each edge is looked at once per label pair, C(k1, 2) times;
    ``CapacityError`` refuses more than ``DEFAULT_CASE_CAP`` looks, from the
    counts alone.
    """
    if not instance.bipartite:
        raise ValidationError("smoothness applies to bipartite instances")
    looks = len(instance.edges) * math.comb(instance.k1, 2)
    if looks > DEFAULT_CASE_CAP:
        raise CapacityError(
            f"smoothness needs {looks} pair looks > cap {DEFAULT_CASE_CAP}"
        )
    # by_vertex[u]: the image tuple of each edge at u, in edge order
    by_vertex: dict[int, list[tuple[int, ...]]] = {}
    for e in instance.edges:
        image = [0] * instance.k1
        for a, b in e.rel.pairs:
            if image[a - 1]:
                raise ValidationError(
                    f"edge ({e.u},{e.v}) relation is not a projection: "
                    f"left label {a} maps twice"
                )
            image[a - 1] = b
        if any(b == 0 for b in image):
            raise ValidationError(
                f"edge ({e.u},{e.v}) relation is not a projection: "
                "some left label has no image"
            )
        by_vertex.setdefault(e.u, []).append(tuple(image))
    eta = Fraction(0)
    for images in by_vertex.values():
        # pairs of label columns: two labels' images under each edge at u
        pairs = itertools.combinations(zip(*images), 2)
        merged = max((sum(map(operator.eq, c, d)) for c, d in pairs), default=0)
        eta = max(eta, Fraction(merged, len(images)))
    return eta
