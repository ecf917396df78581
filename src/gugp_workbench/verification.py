"""Machine verification of the structural claims behind each construction.

Every check enumerates its claim exhaustively (never sampling), returns a
``VerifyReport`` with a PASS/FAIL verdict, counterexample witnesses, and the
number of cases inspected.  Reports are deterministic: witnesses appear in
scan order (bundle index, then label pair / labeling).

Checks never trust metadata produced by the reductions: the indicator check
reads each bundle's expected 0/1 weights off the source game's own relation
(``all_coords_differ_relation``, ``two2two_relation``), which neither gadget
builder calls, and bundle weights are compared against independently stated
closed forms.

A gadget's bundles are its ``BundleMap``: ``source_count`` runs of ``size``
consecutive edges, one run per source edge, in source order.  The two bundle
checks build one satisfied-weight table per run of identical bundles (the
same permutation objects with the same weights, in order, as in every pwt1
gadget), compare it row by row, and report the failing cells of a reused
table under each bundle's own index.  ``CASES=`` still counts k^2 label
pairs per bundle, and ``case_cap`` is an upper bound on the edge looks
performed.  At most ``MAX_RECORDED_WITNESSES`` witnesses are ever
collected.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sized
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .core import (
    GugpInstance,
    Labeling,
    Relation,
    RelationalInstance,
    metrics,
    scaled_weights,
)
from .errors import CapacityError, UsageError, ValidationError
from .evaluation import (
    Objective,
    Tables,
    pair_tables,
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
    tour_to_labeling,
    tour_weight,
    tsp_to_min_nwa,
    two2two_relation,
)
from .solvers import (
    DEFAULT_BRUTE_CAP,
    _prefix_scan,
    _require_label_space,
    brute_force,
    brute_force_relational,
    local_search_half,
)

DEFAULT_CASE_CAP = 10_000_000
MAX_RECORDED_WITNESSES = 50

# (bundle, labels) locate a counterexample; expected/actual say how it fails.
Witness = tuple[object, object, object, object]


@dataclass(frozen=True)
class VerifyReport:
    claim: str
    verdict: str
    cases: int
    witnesses: tuple[Witness, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.verdict not in ("PASS", "FAIL"):
            raise ValidationError("verdict must be PASS or FAIL")
        if (self.verdict == "FAIL") != bool(self.witnesses):
            raise ValidationError("FAIL reports carry witnesses; PASS reports none")

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _report(
    claim: str, cases: int, witnesses: list[Witness], notes: tuple[str, ...] = ()
) -> VerifyReport:
    verdict = "PASS" if not witnesses else "FAIL"
    return VerifyReport(
        claim, verdict, cases, tuple(witnesses[:MAX_RECORDED_WITNESSES]), notes
    )


def _bundle_tables(
    gadget: GugpInstance, bundles: BundleMap, weighted: bool, claim: str, case_cap: int
) -> Iterator[tuple[int, int, int, list[list[int]]]]:
    """Yield ``(bundle, scale, total, table)``, holding one table at a time.

    This is the one reader of the ``BundleMap`` layout: bundle i is
    ``gadget.edges[i * size:(i + 1) * size]``, and ``source_count * size``
    must equal the gadget's edge count.

    ``table[a][b]`` and ``total`` are the bundle's weight satisfied at labels
    (a, b) and its whole weight, both times the gadget's ``scale``;
    unweighted tables count edges.  A bundle whose edges carry the same
    permutation objects with the same integer weights, in order, as the
    previous bundle's yields that bundle's table object again: ids are safe
    keys because the gadget holds every permutation for the whole call.
    Every bundle's edges must still share one vertex pair.  The cap is an
    upper bound on the edge looks performed: k per edge to fill a table plus
    k^2 to read it, counted for every bundle whether its table is reused or
    not: ``source_count * (k * size + k^2)``.
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
    scale, weights = (
        gadget.integer_weights if weighted else (1, (1,) * len(gadget.edges))
    )
    key: tuple = ()
    table: list[list[int]] = []
    for i in range(count):
        start, end = i * size, (i + 1) * size
        edges = gadget.edges[start:end]
        u, v = edges[0].u, edges[0].v
        if any(e.u != u or e.v != v for e in edges):
            raise ValidationError(f"bundle {i} mixes edges of different vertex pairs")
        part = weights[start:end]
        bundle_key = (part, [id(e.pi) for e in edges])
        if bundle_key != key:
            key = bundle_key
            table = pair_tables(edges, part, k, k)[u, v]
        yield i, scale, sum(part), table


def _differing_cells(
    table: list[list[int]], expected: list[list[int]], room: int
) -> list[tuple[int, int]]:
    """The first ``room`` label pairs (a, b), in scan order, at which two
    padded tables differ.  Rows are compared whole; only a row that differs
    is walked cell by cell."""
    cells: list[tuple[int, int]] = []
    for a in range(1, len(table)):
        if table[a] != expected[a]:
            for b, (got, want) in enumerate(zip(table[a], expected[a])):
                if got != want:
                    if len(cells) == room:
                        return cells
                    cells.append((a, b))
    return cells


def check_bundle_exactly_one(
    gadget: GugpInstance,
    bundles: BundleMap,
    case_cap: int = DEFAULT_CASE_CAP,
) -> VerifyReport:
    """Every bundle must satisfy exactly one of its edges per label pair.

    Each table row is compared whole with ``[0] + [1] * k``.  A bundle that
    reuses the previous bundle's table (see ``_bundle_tables``) reuses its
    failing cells too, reported under its own index.  ``case_cap`` is an
    upper bound on the edge looks performed: k * |bundle| + k^2 per bundle.
    """
    k = gadget.k
    once = [[0] + [1] * k] * (k + 1)
    witnesses: list[Witness] = []
    failing: list[tuple[object, object, object]] = []
    seen = None
    for i, _, _, table in _bundle_tables(gadget, bundles, False, "exactly-one", case_cap):
        room = MAX_RECORDED_WITNESSES - len(witnesses)
        if table is not seen:
            seen = table
            cells = _differing_cells(table, once, room)
            failing = [((a, b), 1, table[a][b]) for a, b in cells]
        witnesses.extend((i, *cell) for cell in failing[:room])
    return _report("bundle-exactly-one", k * k * bundles.source_count, witnesses)


def coordinate_collision_predicate(fold: int) -> Callable[[int], Relation]:
    """Indicator input for shift-gadget bundles: every bundle's unsatisfied
    weight should be 1 exactly when the two label tuples share a coordinate,
    i.e. off the repeated 3-cut game's all-coordinates-differ relation."""
    differ = all_coords_differ_relation(fold)
    return lambda _bundle: differ


class _SourceRelations(tuple):
    """One relation per source edge, looked up by bundle index; its length,
    the source's edge count, is checked against the gadget's bundle count."""

    __call__ = tuple.__getitem__


def pair_block_predicate(source: TwoToTwoInstance) -> Callable[[int], Relation]:
    """Indicator input for pair-block bundles: bundle i's unsatisfied weight
    should be 1 exactly off source edge i's two-to-two relation."""
    return _SourceRelations(two2two_relation(e.pi_u, e.pi_v) for e in source.edges)


def check_indicator_weights(
    gadget: GugpInstance,
    bundles: BundleMap,
    relation_of: Callable[[int], Relation],
    case_cap: int = DEFAULT_CASE_CAP,
) -> VerifyReport:
    """Each bundle's unsatisfied weight must be exactly 1 off the relation
    ``relation_of(bundle)`` and exactly 0 on it.

    A lookup with a length, such as ``pair_block_predicate``'s, holds one
    relation per source edge; a gadget with another number of bundles raises
    ``ValidationError`` naming both counts before any bundle is read.
    Labels range over [1..k]; a relation narrower than that raises
    ``ValidationError`` naming the first label pair out of its range.  Each
    table row is compared whole with one expected row built from the
    relation's pairs.  A bundle that reuses the previous bundle's table (see
    ``_bundle_tables``) under the same relation object reuses its failing
    cells too, reported under its own index.  ``case_cap`` is an upper bound
    on the edge looks performed: k * |bundle| + k^2 per bundle.
    """
    if isinstance(relation_of, Sized) and len(relation_of) != bundles.source_count:
        raise ValidationError(
            f"gadget has {bundles.source_count} bundles but the source has "
            f"{len(relation_of)} edges"
        )
    k = gadget.k
    witnesses: list[Witness] = []
    failing: list[tuple[object, object, object]] = []
    seen = seen_rel = None
    for i, scale, total, table in _bundle_tables(
        gadget, bundles, True, "indicator", case_cap
    ):
        rel = relation_of(i)
        if k > rel.k1 or k > rel.k2:
            a, b = (1, rel.k2 + 1) if k > rel.k2 else (rel.k1 + 1, 1)
            raise ValidationError(
                f"label pair ({a},{b}) out of range [1..{rel.k1}]x[1..{rel.k2}]"
            )
        room = MAX_RECORDED_WITNESSES - len(witnesses)
        if table is not seen or rel is not seen_rel:
            seen, seen_rel = table, rel
            # satisfied weight: the whole bundle on the relation, one unit less off it
            expected = [[0] + [total - scale] * k for _ in range(k + 1)]
            for a, b in rel.pairs:
                if a <= k and b <= k:
                    expected[a][b] = total
            failing = [
                (
                    (a, b),
                    Fraction(total - expected[a][b], scale),
                    Fraction(total - table[a][b], scale),
                )
                for a, b in _differing_cells(table, expected, room)
            ]
        witnesses.extend((i, *cell) for cell in failing[:room])
    return _report("bundle-indicator-weights", k * k * bundles.source_count, witnesses)


def check_gadget_metrics(
    gadget: GugpInstance, family: str, param: int, source_edges: int
) -> VerifyReport:
    """Compare instance metrics against the family's closed forms.

    ``family`` is "pwt1" (param = fold) or "pwt-half" (param = half-size k).
    """
    if family == "pwt1":
        fold = param
        three, two = 3**fold, 2**fold
        expected = {
            "w_plus": Fraction(two * (three - two), three - 1) * source_edges,
            "w_minus": Fraction(-(two - 1) * (three - two), three - 1)
            * source_edges,
            "sigma": Fraction(three - two, three - 1) * source_edges,
            "ratio": Fraction(two - 1, two),
        }
    elif family == "pwt-half":
        k = param
        expected = {
            "w_plus": Fraction(4 * (k - 1), 2 * k - 1) * source_edges,
            "w_minus": Fraction(-2 * (k - 1), 2 * k - 1) * source_edges,
            "sigma": Fraction(2 * k - 2, 2 * k - 1) * source_edges,
            "ratio": Fraction(1, 2),
        }
    else:
        raise UsageError(f"unknown gadget family {family!r}")
    actual = asdict(metrics(gadget))
    witnesses: list[Witness] = [
        (None, name, expected[name], actual[name])
        for name in ("w_plus", "w_minus", "sigma", "ratio")
        if expected[name] != actual[name]
    ]
    return _report(f"{family}-metrics", len(expected), witnesses)


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
    return _report("value-transfer", src.visited + gad.visited, witnesses, notes)


def _strip_scan(
    domains: list[range],
    tables_all: Tables,
    tables_pos: Tables,
    sigma: int,
    w_plus: int,
    scale: int,
) -> tuple[int, list[Witness], tuple[int, Labeling], tuple[int, Labeling]]:
    """One joint scan over the all-edges and positive-edges tables.

    Returns the cases, the sandwich witnesses in scan order, and the first
    minimum unsatisfied weight with its labeling for each table set.  A
    leaf's whole row is checked at once on the raw rows; only a failing row
    is walked labeling by labeling to record its witnesses.
    """
    neg_total = w_plus - sigma
    block, leaves_all, leaves_pos = _prefix_scan(domains, tables_all, tables_pos)
    best_orig: tuple[int, Labeling] | None = None
    best_stripped: tuple[int, Labeling] | None = None
    witnesses: list[Witness] = []
    cases = 0
    for (prefix, base, row), (_, base_pos, row_pos) in zip(leaves_all, leaves_pos):
        cases += len(row)
        # W'(f) - W(f) = c - gap(f), so the per-labeling sandwich
        # W(f) <= W'(f) <= W(f) + |W-| holds for the whole row exactly when
        # every gap lies in [c - |W-|, c]
        c = (w_plus - base_pos) - (sigma - base)
        gaps = list(map(operator.sub, row_pos, row))
        if max(gaps) > c or min(gaps) < c - neg_total:
            unsat = map((sigma - base).__sub__, row)
            unsat_pos = map((w_plus - base_pos).__sub__, row_pos)
            for t, u_all, u_pos in zip(block, unsat, unsat_pos):
                if not u_all <= u_pos:
                    pair = (Fraction(u_all, scale), Fraction(u_pos, scale))
                    witnesses.append((None, prefix + t, "W(f) <= W'(f)", pair))
                if not u_pos <= u_all + neg_total:
                    pair = (Fraction(u_pos, scale), Fraction(u_all, scale))
                    witnesses.append((None, prefix + t, "W'(f) <= W(f) + |W-|", pair))
        # the minimum unsatisfied weight sits at the row's first maximum
        top, top_pos = max(row), max(row_pos)
        low, low_pos = sigma - base - top, w_plus - base_pos - top_pos
        if best_orig is None or low < best_orig[0]:
            best_orig = (low, prefix + block[row.index(top)])
        if best_stripped is None or low_pos < best_stripped[0]:
            best_stripped = (low_pos, prefix + block[row_pos.index(top_pos)])
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
    k = instance.k
    # the solvers' rule refuses an over-cap label space before the scan starts
    space = _require_label_space(((k, instance.n),), cap)
    # every edge in one table, positive edges in another
    domains = [range(1, k + 1)] * instance.n
    tables_all = pair_tables(instance.edges, weights, k, k)
    tables_pos = pair_tables(instance.edges, [max(w, 0) for w in weights], k, k)
    cases, witnesses, orig, stripped = _strip_scan(
        domains, tables_all, tables_pos, sigma, w_plus, scale
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
    return _report("strip-weight-sandwich", cases, witnesses, notes)


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
    return _report("local-search-half-guarantee", cases, witnesses, tuple(notes))


def exhaustive_tsp_optimum(tsp: TspInstance) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum tour weight by scanning all tours that fix vertex 0 first
    (the first one found wins ties)."""
    scale, weights = scaled_weights([w for _, _, w in tsp.weights])
    dist = [[0] * tsp.n for _ in range(tsp.n)]
    for (u, v, _), w in zip(tsp.weights, weights):
        dist[u][v] = dist[v][u] = w

    def length(tour: tuple[int, ...]) -> int:
        return sum(dist[a][b] for a, b in zip(tour, tour[1:] + tour[:1]))

    tours = ((0,) + rest for rest in itertools.permutations(range(1, tsp.n)))
    best = min(tours, key=length)
    return Fraction(length(best), scale), best


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
    return _report("tsp-equivalence", cases, witnesses, tuple(notes))


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
    """
    if not instance.bipartite:
        raise ValidationError("smoothness applies to bipartite instances")
    projections: list[tuple[int, tuple[int, ...]]] = []
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
        projections.append((e.u, tuple(image)))
    by_vertex: dict[int, list[tuple[int, ...]]] = {}
    for u, image in projections:
        by_vertex.setdefault(u, []).append(image)
    eta = Fraction(0)
    for u, images in by_vertex.items():
        degree = len(images)
        for i in range(1, instance.k1 + 1):
            for j in range(i + 1, instance.k1 + 1):
                merged = sum(1 for image in images if image[i - 1] == image[j - 1])
                eta = max(eta, Fraction(merged, degree))
    return eta
