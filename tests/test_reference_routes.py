"""The integer routes against plain ``Fraction`` references.

Each reference below is the direct per-edge ``Fraction`` loop for one weight
sum, solver or verifier, or the label-decoding form of one indicator
predicate.  The package's integer and relation-built routes must match it
exactly: the same values, labelings, work counts, notes, and witnesses in
scan order.  The generator and the serializers are held to per-edge copies
the same way: the same instances and the same bytes; the generator builds,
and the GUGP and REL serializers render, each distinct weight, permutation
and relation object once, counted by patching the renderers.  The parser,
which splits GUGP and REL edge lines only up to their constraint string and
reads every edge line's ``u v w`` with one guarded conversion, is held to a
parser that splits every GUGP, REL, T22 and TSP line whole and converts each
token on its own: the same objects, or the same error on the same line.  The
edge types, slotted dataclasses that check their arguments in a
``__post_init__``, are held to the same rules run as ``__post_init__`` steps
of plain frozen dataclasses: the same fields, hash and repr, or the same
error.  ``scaled_weights``, which scales each distinct weight object once,
is held to a per-element loop, and ``_pair_shift`` to its three-branch form.
The exhaustive scan, compiled once per game, is held to the same kernel
built afresh per call with list rows: the same blocks, prefixes, bases and
rows, its packed rows unpacked, at every lane width.  Its layout, whose
shape part is built once per (label counts, lane width) and shared, is held
to the layout built afresh per game: the same fields, at every lane width.
Its plan, built in one
pass over the edges, is held to the plan built from dense pair tables: the
same block row, offsets and prefix tables.  The two bundle checks, which
derive once per run of identical bundles, are held to per-cell loops over
every bundle, and the metrics check's one (k, d) rule to the two per-family
closed-form tables it replaced.
``smoothness``, which compares label columns per vertex, is held to the
per-pair loop over each vertex's edges.  The local search, which sums each
vertex's weights in its one pass over the edges and finds its mover from a
heap, is held to the loop that sums each vertex's incident list and rescans
from vertex 0 after every move.  The bulk GUGP parse is held to the per-line route, sharing
included, the bulk edge builder to a constructor loop, and the instance
checks, made in whole-column passes, to their edge-by-edge loops; every bulk
GUGP build (generation, both gadgets, the TSP encoding and the bulk parse)
makes no edge through the constructor.  The gadget builders, which extend
their tables one coordinate at a time and build per fold or per call what
depends on nothing else, are held to the definitions: the
all-coordinates-differ relation to the label-decoding filter over every
pair, the two-to-two relation to the ``t_contains`` filter, the repeated
edges to ``itertools.product`` over oriented base edges, the pwt1 shifts to
decode, ``modplus`` and encode per label, the pwt-half images to per-label
``_pair_shift`` composition, and ``product_coloring`` to decode and encode
per vertex.  ``repeated_from_relational``, which checks each distinct pair
of weight and relation objects once, is held to the per-edge loop: the same
first failing edge and message.
"""

import collections
import dataclasses
import functools
import heapq
import itertools
import math
import operator
import pickle
import re
import types
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    FAMILIES,
    BundleMap,
    DegenerateInstanceError,
    GenSpec,
    GugpEdge,
    GugpInstance,
    Objective,
    ObjectiveMismatchError,
    ParseError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    SplitMix64,
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    UsageError,
    ValidationError,
    all_coords_differ_relation,
    brute_force,
    brute_force_relational,
    check_bundle_exactly_one,
    check_gadget_metrics,
    check_indicator_weights,
    check_strip_bounds,
    coordinate_collision_predicate,
    decode_label,
    decode_vertex,
    encode_label_tuple,
    encode_vertex_tuple,
    exhaustive_tsp_optimum,
    fmt_fraction,
    generate,
    labeling_value,
    local_search_half,
    metrics,
    modplus,
    pair_block_predicate,
    parse,
    product_coloring,
    pwt1_gadget,
    repeat_max3cut,
    repeated_from_relational,
    satisfied_weight,
    serialize,
    smoothness,
    t_contains,
    two2two_relation,
    two2two_to_pwt_half,
    unsatisfied_weight,
)

from gugp_workbench import reductions, solvers
from gugp_workbench.core import scaled_weights
from gugp_workbench.evaluation import require_objective
from gugp_workbench import fileformat
from gugp_workbench.core import gugp_edges
from gugp_workbench.core import permutations as bulk_permutations
from gugp_workbench.fileformat import parse_fraction
from gugp_workbench.reductions import _pair_shift, label_fold
from gugp_workbench.solvers import (
    BLOCK_LABELINGS,
    Layout,
    Plan,
    _best_labeling,
    _layout,
    _leaves,
    _plan,
    label_space,
    scan,
)
from gugp_workbench.verification import MAX_RECORDED_WITNESSES, _strip_scan

from conftest import (
    gugp,
    gugp_instances,
    labelings_for,
    perm,
    permutations,
    rationals,
    ref_metrics,
    relational_instances,
)

# ---------------------------------------------------------------------------
# references


def pair_tables(edges, weights, k1, k2):
    """Integer satisfied-weight table per oriented vertex pair:
    ``tables[u, v][a][b]`` is the summed weight of the (u, v) edges that the
    labels a at u and b at v satisfy, with row and column 0 as padding.
    The dense-table route the scan plans were compiled from before they
    filled their own prefix tables."""
    tables = {}
    for e, w in zip(edges, weights):
        table = tables.get((e.u, e.v))
        if table is None:
            table = tables[e.u, e.v] = [[0] * (k2 + 1) for _ in range(k1 + 1)]
        pairs = e.rel.pairs if isinstance(e, RelEdge) else enumerate(e.pi.image, 1)
        for a, b in pairs:
            table[a][b] += w
    return tables


def ref_satisfied_weight(instance, labeling):
    total = Fraction(0)
    for e in instance.edges:
        if e.pi.image[labeling[e.u] - 1] == labeling[e.v]:
            total += e.weight
    return total


def ref_labeling_value(instance, labeling, objective):
    """The value, or None when the objective's normalizer is zero."""
    m = ref_metrics(instance)
    sat = ref_satisfied_weight(instance, labeling)
    numerator, normalizer = {
        Objective.MAX_UGP: (sat, m.sigma),
        Objective.MIN_UGP: (m.sigma - sat, m.sigma),
        Objective.MAX_PWT: (sat, m.sigma),
        Objective.MIN_PWT: (m.sigma - sat, m.sigma),
        Objective.MAX_NWA: (abs(m.sigma - sat), abs(m.w_minus)),
        Objective.MIN_NWA: (abs(sat), abs(m.w_minus)),
    }[objective]
    return None if normalizer == 0 else numerator / normalizer


def ref_allowed(instance, objective):
    m = ref_metrics(instance)
    if objective in (Objective.MAX_UGP, Objective.MIN_UGP):
        return m.w_minus == 0
    if objective in (Objective.MAX_PWT, Objective.MIN_PWT):
        return m.sigma > 0
    return m.w_plus == 0


def ref_relational_satisfied_weight(instance, labeling):
    total = Fraction(0)
    for e in instance.edges:
        if (labeling[e.u], labeling[e.v]) in e.rel:
            total += e.weight
    return total


def ref_exhaustive_tsp_optimum(tsp):
    weight = {(u, v): w for u, v, w in tsp.weights}
    best = best_tour = None
    for rest in itertools.permutations(range(1, tsp.n)):
        tour = (0,) + rest
        w = Fraction(0)
        for i, a in enumerate(tour):
            b = tour[(i + 1) % tsp.n]
            w += weight[min(a, b), max(a, b)]
        if best is None or w < best:
            best, best_tour = w, tour
    return best, best_tour


def ref_collision_predicate(fold):
    def predicate(_bundle, a, b):
        return any(x == y for x, y in zip(decode_label(a, fold), decode_label(b, fold)))

    return predicate


def ref_pair_block_predicate(source):
    def predicate(bundle, a, b):
        e = source.edges[bundle]
        return not t_contains(e.pi_u.apply(a), e.pi_v.apply(b))

    return predicate


def ref_pair_shift(a, m, k2):
    """Where pair-block bundle edge m (1-based) moves position a: edge
    2j - 1 shifts every position by 2j - 2, edge 2j shifts odd positions by
    2j - 1 and even positions by 2j - 3."""
    j = (m + 1) // 2
    if m % 2 == 1:
        return modplus(a + 2 * j - 2, k2)
    if a % 2 == 1:
        return modplus(a + 2 * j - 1, k2)
    return modplus(a + 2 * j - 3, k2)


def ref_brute_force(instance):
    best, best_sat = None, None
    for labeling in itertools.product(range(1, instance.k + 1), repeat=instance.n):
        sat = Fraction(0)
        for e in instance.edges:
            if e.pi.image[labeling[e.u] - 1] == labeling[e.v]:
                sat += e.weight
        if best_sat is None or sat > best_sat:
            best, best_sat = labeling, sat
    return best, instance.k**instance.n


def ref_brute_force_relational(instance):
    domains = [range(1, instance.label_count(v) + 1) for v in range(instance.n)]
    best, best_sat, visited = None, None, 0
    for labeling in itertools.product(*domains):
        visited += 1
        sat = Fraction(0)
        for e in instance.edges:
            if (labeling[e.u], labeling[e.v]) in e.rel:
                sat += e.weight
        if best_sat is None or sat > best_sat:
            best, best_sat = labeling, sat
    return best, visited


def ref_strip_bounds(instance):
    """(cases, witnesses, notes) of the strip-weight sandwich."""
    m = metrics(instance)
    neg_total = abs(m.w_minus)
    best_orig = best_orig_label = best_stripped = best_stripped_label = None
    witnesses = []
    cases = 0
    for labeling in itertools.product(range(1, instance.k + 1), repeat=instance.n):
        cases += 1
        unsat_all = Fraction(0)
        unsat_pos = Fraction(0)
        for e in instance.edges:
            if e.pi.image[labeling[e.u] - 1] != labeling[e.v]:
                unsat_all += e.weight
                if e.weight > 0:
                    unsat_pos += e.weight
        if not unsat_all <= unsat_pos:
            witnesses.append((None, labeling, "W(f) <= W'(f)", (unsat_all, unsat_pos)))
        if not unsat_pos <= unsat_all + neg_total:
            witnesses.append(
                (None, labeling, "W'(f) <= W(f) + |W-|", (unsat_pos, unsat_all))
            )
        if best_orig is None or unsat_all < best_orig:
            best_orig, best_orig_label = unsat_all, labeling
        if best_stripped is None or unsat_pos < best_stripped:
            best_stripped, best_stripped_label = unsat_pos, labeling

    def fmt(x):
        return f"{x.numerator}/{x.denominator}"

    val_orig = best_orig / m.sigma
    val_stripped = best_stripped / m.w_plus
    rho = m.ratio
    notes = (
        f"MIN_UNSAT_ORIGINAL={fmt(best_orig)}",
        f"MIN_UNSAT_STRIPPED={fmt(best_stripped)}",
        f"VAL_ORIGINAL={fmt(val_orig)}",
        f"VAL_STRIPPED={fmt(val_stripped)}",
        f"NORMALIZED_LOWER={'HOLDS' if val_stripped >= (1 - rho) * val_orig else 'FAILS'}",
        f"NORMALIZED_UPPER={'HOLDS' if val_stripped <= val_orig + rho else 'FAILS'}",
        f"NORMALIZED_UPPER_BOUND={fmt(val_orig + rho)}",
        f"WITNESS_ORIGINAL={','.join(map(str, best_orig_label))}",
        f"WITNESS_STRIPPED={','.join(map(str, best_stripped_label))}",
    )
    return cases, witnesses, notes


def ref_bundle_exactly_one(gadget, bundles):
    k = gadget.k
    witnesses, cases = [], 0
    for i in range(bundles.source_count):
        bundle = gadget.edges[i * bundles.size : (i + 1) * bundles.size]
        images = [(0,) + e.pi.image for e in bundle]
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                cases += 1
                hits = sum(1 for image in images if image[a] == b)
                if hits != 1:
                    witnesses.append((i, (a, b), 1, hits))
    return cases, witnesses


def ref_indicator_weights(gadget, bundles, predicate):
    k = gadget.k
    witnesses, cases = [], 0
    for i in range(bundles.source_count):
        edges = gadget.edges[i * bundles.size : (i + 1) * bundles.size]
        bundle_total = sum((e.weight for e in edges), Fraction(0))
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                cases += 1
                sat = sum(
                    (e.weight for e in edges if e.pi.image[a - 1] == b), Fraction(0)
                )
                expected = Fraction(1) if predicate(i, a, b) else Fraction(0)
                actual = bundle_total - sat
                if actual != expected:
                    witnesses.append((i, (a, b), expected, actual))
    return cases, witnesses


def ref_local_search(instance, seed=None):
    """Rescan-from-vertex-0 local search; returns (labeling, steps)."""
    n, k, edges = instance.n, instance.k, instance.edges
    if seed is None:
        labels = [1] * n
    else:
        stream = SplitMix64(seed)
        labels = [1 + stream.below(k) for _ in range(n)]
    incident = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        incident[e.u].append(i)
        incident[e.v].append(i)

    def happy(i):
        e = edges[i]
        return e.pi.image[labels[e.u] - 1] != labels[e.v]

    def local_split(vertex):
        sat = sum((-edges[i].weight for i in incident[vertex] if happy(i)), Fraction(0))
        total = sum((-edges[i].weight for i in incident[vertex]), Fraction(0))
        return sat, total

    def global_sat():
        return sum((-e.weight for i, e in enumerate(edges) if happy(i)), Fraction(0))

    steps = 0
    current = global_sat()
    while True:
        mover = None
        for v in range(n):
            sat, total = local_split(v)
            if 2 * sat < total:
                mover = v
                break
        if mover is None:
            return tuple(labels), steps
        best_label, best_sat = None, None
        old = labels[mover]
        for candidate in range(1, k + 1):
            if candidate == old:
                continue
            labels[mover] = candidate
            sat, _ = local_split(mover)
            if best_sat is None or sat > best_sat:
                best_label, best_sat = candidate, sat
        labels[mover] = best_label
        steps += 1
        new = global_sat()
        assert new > current
        current = new


def rescan_local_search(instance, seed=None):
    """The integer local search that rescans from vertex 0 for its mover
    after every move; returns (labeling, steps)."""
    n, k = instance.n, instance.k
    weights = [-w for w in instance.integer_weights[1]]
    if seed is None:
        labels = [1] * n
    else:
        stream = SplitMix64(seed)
        labels = [1 + stream.below(k) for _ in range(n)]
    incident = [[] for _ in range(n)]
    for e, w in zip(instance.edges, weights):
        image, inverse = e.pi.rows
        incident[e.u].append((e.v, inverse, w))
        incident[e.v].append((e.u, image, w))
    total = [sum(w for _, _, w in edges) for edges in incident]
    unsat = [
        sum(w for y, hit, w in incident[x] if hit[labels[y]] == labels[x])
        for x in range(n)
    ]
    steps = 0
    while True:
        mover = next((x for x in range(n) if 2 * unsat[x] > total[x]), None)
        if mover is None:
            return tuple(labels), steps
        old = labels[mover]
        unsat_at = [0] * (k + 1)
        for y, hit, w in incident[mover]:
            unsat_at[hit[labels[y]]] += w
        new = min((c for c in range(1, k + 1) if c != old), key=unsat_at.__getitem__)
        assert unsat_at[new] < unsat[mover]
        for y, hit, w in incident[mover]:
            h = hit[labels[y]]
            unsat[y] += w * ((h == new) - (h == old))
        unsat[mover] = unsat_at[new]
        labels[mover] = new
        steps += 1


def ref_smoothness(instance):
    """The pair loop: per V vertex and label pair i < j, the share of the
    vertex's edges whose projection sends i and j to one right label."""
    by_vertex = {}
    for e in instance.edges:
        by_vertex.setdefault(e.u, []).append(dict(e.rel.pairs))
    eta = Fraction(0)
    for images in by_vertex.values():
        for i in range(1, instance.k1 + 1):
            for j in range(i + 1, instance.k1 + 1):
                merged = sum(1 for image in images if image[i] == image[j])
                eta = max(eta, Fraction(merged, len(images)))
    return eta


# ---------------------------------------------------------------------------
# instances


def seeded_gugp(seed, n, m, k, nwa=False, max_ratio=None):
    spec = GenSpec(
        family="random-gugp", seed=seed, n=n, m=m, k=k, nwa=nwa, max_ratio=max_ratio
    )
    return generate(spec).instance


@st.composite
def bundled_gadgets(draw):
    """Arbitrary bundles of one drawn size (most of them failing both bundle
    checks), on up to 6 labels, so that one bundle's failing cells can
    overflow the witness room.  A bundle may repeat an earlier bundle's
    exact ``(pi, weight)`` objects, on any vertex pair, so runs of identical
    bundles reach the shared path, or its permutation objects alone with
    fresh weights, so that a run of the exactly-one check, keyed by the
    permutations, spans bundles that the indicator check derives apart."""
    k = draw(st.integers(min_value=1, max_value=6))
    size = draw(st.integers(min_value=1, max_value=k + 1))
    count = draw(st.integers(min_value=1, max_value=6))
    edges, contents = [], []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=2))
        v = (u + draw(st.integers(min_value=1, max_value=2))) % 3
        reuse = "fresh"
        if contents:
            reuse = draw(st.sampled_from(["fresh", "same", "reweighted"]))
        if reuse == "same":
            content = draw(st.sampled_from(contents))
        elif reuse == "reweighted":
            earlier = draw(st.sampled_from(contents))
            content = [(pi, draw(rationals())) for pi, _ in earlier]
            contents.append(content)
        else:
            content = []
            for _ in range(size):
                image = draw(st.permutations(tuple(range(1, k + 1))))
                content.append((Permutation(tuple(image)), draw(rationals())))
            contents.append(content)
        edges.extend(GugpEdge(u, v, weight, pi) for pi, weight in content)
    return GugpInstance(3, k, tuple(edges)), BundleMap(count, size)


# ---------------------------------------------------------------------------
# weight sums and values


def assert_weight_sums_match_reference(inst, labeling):
    m = metrics(inst)
    assert m == ref_metrics(inst)
    assert all(type(x) is Fraction for x in (m.w_plus, m.w_minus, m.sigma))
    sat = ref_satisfied_weight(inst, labeling)
    assert satisfied_weight(inst, labeling) == sat
    assert unsatisfied_weight(inst, labeling) == ref_metrics(inst).sigma - sat
    for objective in Objective:
        if not ref_allowed(inst, objective):
            with pytest.raises(ObjectiveMismatchError):
                labeling_value(inst, labeling, objective)
            continue
        expected = ref_labeling_value(inst, labeling, objective)
        if expected is None:
            with pytest.raises(DegenerateInstanceError):
                labeling_value(inst, labeling, objective)
        else:
            assert labeling_value(inst, labeling, objective) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["any", "positive", "negative"]).flatmap(
        lambda signs: gugp_instances(signs=signs)
    ),
    st.data(),
)
def test_weight_sums_match_reference(inst, data):
    assert_weight_sums_match_reference(inst, data.draw(labelings_for(inst.n, inst.k)))


def test_weight_sums_on_edgeless_instance():
    assert_weight_sums_match_reference(GugpInstance(2, 2, ()), (1, 2))


@settings(max_examples=60, deadline=None)
@given(relational_instances(), st.data())
def test_relational_sums_match_reference(inst, data):
    domains = [st.integers(1, inst.label_count(v)) for v in range(inst.n)]
    labeling = data.draw(st.tuples(*domains))
    sat = ref_relational_satisfied_weight(inst, labeling)
    assert satisfied_weight(inst, labeling) == sat
    total = sum((e.weight for e in inst.edges), Fraction(0))
    assert labeling_value(inst, labeling, Objective.MAX_UGP) == sat / total


def test_relational_sums_on_edgeless_instance():
    inst = RelationalInstance(2, 2, 2, ())
    assert satisfied_weight(inst, (1, 2)) == 0
    with pytest.raises(DegenerateInstanceError):
        labeling_value(inst, (1, 2), Objective.MAX_UGP)


@st.composite
def tsp_instances(draw, n):
    # few distinct weights, so optimal tours often tie
    weights = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5, 3)])
    pairs = itertools.combinations(range(n), 2)
    return TspInstance(n, tuple((u, v, draw(weights)) for u, v in pairs))


@pytest.mark.parametrize("n", range(3, 8))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_exhaustive_tsp_optimum_matches_reference(n, data):
    tsp = data.draw(tsp_instances(n))
    assert exhaustive_tsp_optimum(tsp) == ref_exhaustive_tsp_optimum(tsp)


@pytest.mark.parametrize("n", range(3, 8))
def test_exhaustive_tsp_optimum_matches_reference_seeded(n):
    tsp = generate(GenSpec("random-tsp", seed=n, n=n)).instance
    assert exhaustive_tsp_optimum(tsp) == ref_exhaustive_tsp_optimum(tsp)


# ---------------------------------------------------------------------------
# indicator predicates


def lookup(relation_of):
    """Bundle i's relation, from a relations tuple or a lookup."""
    if isinstance(relation_of, tuple):
        return relation_of.__getitem__
    return relation_of


def misses(relation_of):
    """The per-cell predicate a relations tuple or lookup stands for."""
    return lambda bundle, a, b: (a, b) not in lookup(relation_of)(bundle)


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_collision_predicate_matches_reference(fold):
    _, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), fold))
    relation_of = coordinate_collision_predicate(fold)
    predicate = misses(relation_of)
    reference = ref_collision_predicate(fold)
    labels = range(1, 3**fold + 1)
    for i in range(bundles.source_count):
        assert (relation_of(i).k1, relation_of(i).k2) == (3**fold, 3**fold)
        for a, b in itertools.product(labels, labels):
            assert predicate(i, a, b) == reference(i, a, b)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pair_block_predicate_matches_reference(seed, k):
    source = generate(GenSpec("random-t22", seed=seed, n=4, m=5, k=k)).instance
    relation_of = pair_block_predicate(source)
    predicate = misses(relation_of)
    reference = ref_pair_block_predicate(source)
    labels = range(1, 2 * k + 1)
    for i in range(len(source.edges)):
        assert (relation_of[i].k1, relation_of[i].k2) == (2 * k, 2 * k)
        for a, b in itertools.product(labels, labels):
            assert predicate(i, a, b) == reference(i, a, b)


def test_predicates_reject_out_of_range_labels():
    # a gadget with more labels than the relation: the first pair out of
    # range in scan order is named, whichever side is too narrow
    source = generate(GenSpec("random-t22", seed=1, n=3, m=2, k=2)).instance
    fold3, fold3_bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 3))
    wide = generate(GenSpec("random-t22", seed=1, n=3, m=2, k=3)).instance
    k6, k6_bundles = two2two_to_pwt_half(wide)
    narrow_left = Relation(2, 6, {(1, 1)})
    for gadget, bundles, relation_of, pair in (
        (fold3, fold3_bundles, coordinate_collision_predicate(2), "(1,10)"),
        (k6, k6_bundles, pair_block_predicate(source), "(1,5)"),
        (k6, k6_bundles, lambda _bundle: narrow_left, "(3,1)"),
    ):
        rel = lookup(relation_of)(0)
        message = f"label pair {pair} out of range [1..{rel.k1}]x[1..{rel.k2}]"
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_indicator_weights(gadget, bundles, relation_of)


def test_pair_shift_matches_the_three_branch_reference():
    for k2 in range(2, 41, 2):
        labels = range(1, k2 + 1)
        for a in labels:
            images = [_pair_shift(a, m, k2) for m in labels]
            assert images == [ref_pair_shift(a, m, k2) for m in labels]
            assert sorted(images) == list(labels)


# ---------------------------------------------------------------------------
# brute force


@settings(max_examples=60, deadline=None)
@given(gugp_instances(), st.sampled_from(list(Objective)))
def test_brute_force_matches_reference(inst, objective):
    try:
        result = brute_force(inst, objective)
    except (ObjectiveMismatchError, DegenerateInstanceError):
        return  # sign precondition or zero normalizer; not a scan question
    labeling, visited = ref_brute_force(inst)
    assert (result.labeling, result.visited) == (labeling, visited)
    assert result.value == labeling_value(inst, labeling, objective)


@pytest.mark.parametrize("seed", range(6))
def test_brute_force_matches_reference_seeded(seed):
    inst = seeded_gugp(seed, n=6, m=14, k=3, max_ratio=Fraction(1, 2))
    result = brute_force(inst, Objective.MIN_PWT)
    assert (result.labeling, result.visited) == ref_brute_force(inst)


@settings(max_examples=60, deadline=None)
@given(relational_instances())
def test_brute_force_relational_matches_reference(inst):
    labeling, visited = ref_brute_force_relational(inst)
    total = sum((e.weight for e in inst.edges), Fraction(0))
    expected = (labeling, ref_relational_satisfied_weight(inst, labeling) / total, visited)
    # the game path under max-ugp and its relational name agree with the reference
    for result in (brute_force(inst, Objective.MAX_UGP), brute_force_relational(inst)):
        assert (result.labeling, result.value, result.visited) == expected


# ---------------------------------------------------------------------------
# the prefix-scan kernel

# padding entries: any read of row or column 0 would show in a score
PAD = 10**6


def ref_scores(domains, tables):
    """Every labeling with its total table weight, in lexicographic order."""
    return [
        (f, sum(table[f[u]][f[v]] for (u, v), table in tables.items()))
        for f in itertools.product(*domains)
    ]


def ref_prefix_scan(domains, *table_sets):
    """The kernel's ``(block, leaves, ...)`` built per call: each table set
    oriented on its own, its crossing vectors zipped per label from one lazy
    column map per table, and ``block_row`` from zipped internal maps."""
    split, size = len(domains), 1
    while split and size * len(domains[split - 1]) <= BLOCK_LABELINGS:
        split -= 1
        size *= len(domains[split])
    block = list(itertools.product(*domains[split:]))
    columns = dict(zip(range(split, len(domains)), zip(*block)))

    def leaves(tables):
        internal = []
        later = [[] for _ in range(split)]
        crossing = {}
        for (u, v), table in tables.items():
            if u > v:
                u, v, table = v, u, [list(col) for col in zip(*table)]
            if v < split:
                later[v].append((u, table))
            elif u >= split:
                rows = map(table.__getitem__, columns[u])
                internal.append(map(operator.getitem, rows, columns[v]))
            else:
                by_label = crossing.setdefault(u, {a: [] for a in domains[u]})
                for a, parts in by_label.items():
                    parts.append(map(table[a].__getitem__, columns[v]))
        block_row = list(map(sum, zip(*internal))) if internal else [0] * len(block)
        cross = {
            x: {a: list(map(sum, zip(*parts))) for a, parts in by_label.items()}
            for x, by_label in crossing.items()
        }
        labels = [0] * split

        def walk(x, base, row):
            if x == split:
                yield tuple(labels), base, row
                return
            gain = list(map(sum, zip(*(t[labels[y]] for y, t in later[x]))))
            by_label = cross.get(x)
            for a in domains[x]:
                labels[x] = a
                yield from walk(
                    x + 1,
                    base + gain[a] if gain else base,
                    row if by_label is None else list(map(operator.add, row, by_label[a])),
                )

        return walk(0, 0, block_row)

    return (block, *map(leaves, table_sets))


def score_bound(*table_sets):
    """A bound on the absolute score of any labeling under each table set:
    per table, its largest absolute entry off the padding."""
    return max(
        sum(max(abs(x) for row in t[1:] for x in row[1:]) for t in tables.values())
        for tables in table_sets
    )


def table_edges(domains, tables):
    """A bare table set as the edges and weights ``_plan`` reads: one
    single-pair relation edge per nonzero entry off the padding, weighted by
    the entry, so that the edges of each vertex pair sum back to its table."""
    edges, weights = [], []
    for (u, v), table in tables.items():
        for a, row in enumerate(table[1:], 1):
            for b, entry in enumerate(row[1:], 1):
                if entry:
                    rel = Relation(len(domains[u]), len(domains[v]), {(a, b)})
                    edges.append(RelEdge(u, v, Fraction(1), rel))
                    weights.append(entry)
    return edges, weights


def compiled_scan(domains, *table_sets):
    """``ref_prefix_scan``'s result through the compiled route: one layout,
    with lanes for every table set (one weight of ``score_bound`` sizes
    them), and one plan per table set, from its entries as edges."""
    layout = _layout(domains, [score_bound(*table_sets)])
    plans = (_plan(layout, *table_edges(domains, t)) for t in table_sets)
    return (layout, *(_leaves(layout, plan) for plan in plans))


def unpacked(layout, leaves):
    """Compiled leaves with each packed row unpacked to its list of scores."""
    for prefix, base, row in leaves:
        yield prefix, base, [lane - layout.bias for lane in layout.lanes(row)]


def compiled_stream(scanned):
    """``scan_stream`` of a compiled ``(layout, leaves, ...)``, rows unpacked
    and the shared block tuple listed."""
    layout, *leaves = scanned
    return [list(layout.block), *(list(unpacked(layout, each)) for each in leaves)]


def strip_scan(domains, tables_all, tables_pos, sigma, w_plus, scale):
    """``_strip_scan`` on the compiled scans of two bare table sets."""
    scans = compiled_scan(domains, tables_all, tables_pos)
    return _strip_scan(*scans, sigma, w_plus, scale)


def kernel_scores(domains, tables):
    layout, leaves = compiled_scan(domains, tables)
    return [
        (prefix + t, base + score)
        for prefix, base, row in unpacked(layout, leaves)
        for t, score in zip(layout.block, row)
    ]


def ref_strip_scan(domains, tables_all, tables_pos, sigma, w_plus, scale):
    """The strip-bounds joint scan as one plain loop over all labelings,
    which records every witness and keeps the first
    ``MAX_RECORDED_WITNESSES``, as many as a report holds."""
    neg_total = w_plus - sigma
    best_orig = best_stripped = None
    witnesses = []
    scores_pos = ref_scores(domains, tables_pos)
    for (f, sat), (_, sat_pos) in zip(ref_scores(domains, tables_all), scores_pos):
        unsat, unsat_pos = sigma - sat, w_plus - sat_pos
        if not unsat <= unsat_pos:
            pair = (Fraction(unsat, scale), Fraction(unsat_pos, scale))
            witnesses.append((None, f, "W(f) <= W'(f)", pair))
        if not unsat_pos <= unsat + neg_total:
            pair = (Fraction(unsat_pos, scale), Fraction(unsat, scale))
            witnesses.append((None, f, "W'(f) <= W(f) + |W-|", pair))
        if best_orig is None or unsat < best_orig[0]:
            best_orig = (unsat, f)
        if best_stripped is None or unsat_pos < best_stripped[0]:
            best_stripped = (unsat_pos, f)
    witnesses = witnesses[:MAX_RECORDED_WITNESSES]
    return len(scores_pos), witnesses, best_orig, best_stripped


@st.composite
def scan_domains(draw, max_space=3000):
    """1..8 vertices with 1..4 labels each, at most ``max_space`` labelings."""
    sizes = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        room = min(4, max_space // math.prod(sizes))
        sizes.append(draw(st.integers(min_value=1, max_value=room)))
    return [range(1, size + 1) for size in sizes]


@st.composite
def scan_tables(draw, domains, entries=st.integers(min_value=-5, max_value=5)):
    """Tables on ordered vertex pairs, (u, v) and (v, u) alike, sized by the
    endpoints' label counts, with ``PAD`` in row and column 0."""
    n = len(domains)
    tables = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if n > 1 else 0):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = (u + draw(st.integers(min_value=1, max_value=n - 1))) % n
        tables[u, v] = [[PAD] * (len(domains[v]) + 1)] + [
            [PAD] + [draw(entries) for _ in domains[v]] for _ in domains[u]
        ]
    return tables


@settings(max_examples=100, deadline=None)
@given(scan_domains().flatmap(lambda d: st.tuples(st.just(d), scan_tables(d))))
def test_prefix_scan_scores_every_labeling_in_order(domains_and_tables):
    domains, tables = domains_and_tables
    reference = ref_scores(domains, tables)
    assert kernel_scores(domains, tables) == reference
    top = max(score for _, score in reference)
    first = next(f for f, score in reference if score == top)
    assert _best_labeling(*compiled_scan(domains, tables)) == first


@pytest.mark.parametrize(
    "sizes, prefix_len, leaf_count",
    [
        ([3] * 7, 2, 9),  # 3^5 = 243 labelings in the block
        ([2] * 10, 2, 4),  # 2^8 = 256 fills the block exactly
        ([3] * 5, 0, 1),  # the whole space is the block
        ([4], 0, 1),  # n = 1
        ([2, 300, 2], 2, 600),  # a vertex over the constant stays in the prefix
        ([300], 1, 300),  # an empty block: one score per leaf
        ([4] * 6, 2, 16),  # 4^4 = 256 fills the block too
    ],
)
def test_prefix_scan_split_depends_on_label_counts_only(sizes, prefix_len, leaf_count):
    domains = [range(1, size + 1) for size in sizes]
    n = len(domains)
    # one table on every consecutive pair, both orientations, and a long edge
    tables = {}
    for u, v in [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)] * (n > 1):
        tables[u, v] = [[PAD] * (sizes[v] + 1)] + [
            [PAD] + [(3 * a + 5 * b + u) % 7 - 3 for b in domains[v]]
            for a in domains[u]
        ]
    layout, leaves = compiled_scan(domains, tables)
    block, leaves = layout.block, list(leaves)
    assert len(leaves) == leaf_count
    assert all(len(prefix) == prefix_len for prefix, _, _ in leaves)
    assert len(block) == math.prod(sizes[prefix_len:]) <= BLOCK_LABELINGS
    assert [prefix + t for prefix, _, _ in leaves for t in block] == list(
        itertools.product(*domains)
    )
    assert kernel_scores(domains, tables) == ref_scores(domains, tables)


def eager_kernel_scores(domains, tables):
    """``kernel_scores`` with every leaf collected before any row is read."""
    layout, leaves = compiled_scan(domains, tables)
    leaves = list(leaves)
    return [
        (prefix + t, base + score)
        for prefix, base, row in unpacked(layout, leaves)
        for t, score in zip(layout.block, row)
    ]


def mod5_table(a_size, b_size, shift):
    return [[PAD] * (b_size + 1)] + [
        [PAD] + [(2 * a + 3 * b + shift) % 5 - 2 for b in range(1, b_size + 1)]
        for a in range(1, a_size + 1)
    ]


# seven 3-label vertices: the prefix is 0, 1 and the block 2..6.  Vertex 1 has
# no table into the block, so the three leaves under each label of vertex 0
# share one row.
SHARED_ROW_DOMAINS = [range(1, 4)] * 7
SHARED_ROW_TABLES = {
    (0, 6): mod5_table(3, 3, 0),
    (3, 0): mod5_table(3, 3, 1),
    (0, 1): mod5_table(3, 3, 2),
    (2, 5): mod5_table(3, 3, 3),
}


@settings(max_examples=100, deadline=None)
@given(scan_domains().flatmap(lambda d: st.tuples(st.just(d), scan_tables(d))))
@example((SHARED_ROW_DOMAINS, SHARED_ROW_TABLES))
@example((SHARED_ROW_DOMAINS, {**SHARED_ROW_TABLES, (1, 4): mod5_table(3, 3, 4)}))
def test_prefix_scan_rows_hold_their_scores_after_the_walk(domains_and_tables):
    # a kernel that added into a row in place, or refilled one buffer per
    # leaf, would pass a lazy consumer and fail here
    domains, tables = domains_and_tables
    assert eager_kernel_scores(domains, tables) == ref_scores(domains, tables)


def test_prefix_scan_siblings_without_crossing_tables_share_one_row():
    _, leaves = compiled_scan(SHARED_ROW_DOMAINS, SHARED_ROW_TABLES)
    leaves = list(leaves)
    assert [len(prefix) for prefix, _, _ in leaves] == [2] * 9
    rows = [row for _, _, row in leaves]
    assert all(rows[i] is rows[i - i % 3] for i in range(9))
    assert rows[0] is not rows[3] is not rows[6]


def test_prefix_scan_without_tables_ties_at_all_ones():
    domains = [range(1, 4)] * 7
    assert _best_labeling(*compiled_scan(domains, {})) == (1,) * 7
    assert _best_labeling(*compiled_scan([range(1, 6)], {})) == (1,)


def scan_stream(scanned):
    """``[block, leaves, ...]`` with every leaf of each table set collected."""
    block, *leaves = scanned
    return [block, *map(list, leaves)]


# a bipartite game's domains, W side 2 labels and V side 3: vertices 0 (W)
# and 1 (V) form the prefix, 2..6 the block; every table runs V -> W, so the
# ones from a later V vertex reach the walk as (v, u)
BIPARTITE_DOMAINS = [range(1, size + 1) for size in (2, 3, 2, 3, 3, 2, 3)]
BIPARTITE_TABLES = {
    (1, 0): mod5_table(3, 2, 0),
    (1, 2): mod5_table(3, 2, 1),
    (1, 5): mod5_table(3, 2, 2),
    (3, 0): mod5_table(3, 2, 3),
    (4, 5): mod5_table(3, 2, 4),
    (6, 2): mod5_table(3, 2, 0),
}
# one-label vertices in the prefix (0) and the block (7, 8)
ONE_LABEL_DOMAINS = [range(1, size + 1) for size in (1, 3, 3, 3, 3, 3, 3, 1, 1)]
ONE_LABEL_TABLES = {
    (0, 8): mod5_table(1, 1, 0),
    (7, 1): mod5_table(1, 3, 1),
    (0, 1): mod5_table(1, 3, 2),
}


@settings(max_examples=100, deadline=None)
@given(
    scan_domains().flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(scan_tables(d), min_size=1, max_size=2)
        )
    )
)
@example((SHARED_ROW_DOMAINS, [SHARED_ROW_TABLES, {}]))
@example((BIPARTITE_DOMAINS, [BIPARTITE_TABLES, {}]))
@example((ONE_LABEL_DOMAINS, [ONE_LABEL_TABLES]))
def test_compiled_plan_yields_the_reference_stream(domains_and_table_sets):
    domains, table_sets = domains_and_table_sets
    expected = scan_stream(ref_prefix_scan(domains, *table_sets))
    assert compiled_stream(compiled_scan(domains, *table_sets)) == expected


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k, n, m", [(3, 7, 14), (2, 10, 18), (4, 6, 14), (4, 5, 9)])
def test_brute_force_over_the_block_matches_reference(seed, k, n, m):
    inst = seeded_gugp(seed, n=n, m=m, k=k, max_ratio=Fraction(1, 2))
    labeling, visited = ref_brute_force(inst)
    assert k**n > BLOCK_LABELINGS
    for objective in (Objective.MAX_PWT, Objective.MIN_PWT):
        result = brute_force(inst, objective)
        assert (result.labeling, result.visited) == (labeling, visited)
        assert result.value == labeling_value(inst, labeling, objective)
    report = check_strip_bounds(inst)
    assert (report.cases, list(report.witnesses), report.notes) == ref_strip_bounds(inst)


def test_brute_force_on_mixed_orientations_parallel_edges_and_isolated_vertices():
    # vertices 0, 1 form the prefix and 2..6 the block; 3 and 5 are isolated
    inst = gugp(
        7,
        3,
        (0, 1, 2, perm(2, 3, 1)),
        (1, 0, -1, perm(1, 3, 2)),
        (0, 1, 1, perm(3, 1, 2)),  # parallel to the first edge
        (0, 4, 3, perm(1, 2, 3)),  # prefix -> block
        (6, 1, 2, perm(2, 1, 3)),  # block -> prefix
        (6, 1, -1, perm(3, 2, 1)),
        (2, 6, 1, perm(3, 1, 2)),
        (6, 2, 2, perm(2, 3, 1)),  # the reverse of a block pair
        (4, 2, 1, perm(1, 3, 2)),
    )
    labeling, visited = ref_brute_force(inst)
    for objective in (Objective.MAX_PWT, Objective.MIN_PWT):
        result = brute_force(inst, objective)
        assert (result.labeling, result.visited) == (labeling, visited)
    report = check_strip_bounds(inst)
    assert (report.cases, list(report.witnesses), report.notes) == ref_strip_bounds(inst)


def cyclic_shift(k, s):
    return perm(*((a + s) % k + 1 for a in range(k)))


@pytest.mark.parametrize("k, n", [(2, 10), (3, 7), (3, 3)])
def test_all_tie_instances_return_all_ones(k, n):
    # every label pair on an edge pair satisfies exactly one of the k shifts
    pairs = [(0, n - 1), (n - 1, 1), (1, 2)]
    inst = gugp(n, k, *[(u, v, 1, cyclic_shift(k, s)) for u, v in pairs for s in range(k)])
    assert ref_brute_force(inst)[0] == (1,) * n
    for objective in (Objective.MAX_UGP, Objective.MIN_UGP):
        assert brute_force(inst, objective).labeling == (1,) * n
    report = check_strip_bounds(inst)
    assert (report.cases, list(report.witnesses), report.notes) == ref_strip_bounds(inst)
    assert "WITNESS_ORIGINAL=" + ",".join(["1"] * n) in report.notes


def test_all_tie_bipartite_relational_returns_all_ones():
    sides = ("V",) * 4 + ("W",) * 4
    full = Relation(3, 2, frozenset(itertools.product(range(1, 4), range(1, 3))))
    edges = tuple(RelEdge(u, v, Fraction(1), full) for u, v in ((0, 4), (1, 7), (3, 5)))
    inst = RelationalInstance(8, 3, 2, edges, sides)
    result = brute_force_relational(inst)
    assert (result.labeling, result.visited) == ((1,) * 8, 3**4 * 2**4)
    assert result.value == 1


@st.composite
def bipartite_over_the_block(draw):
    """V side 0..3 with 3 labels, W side 4..7 with 2: 1,296 labelings."""
    sides = ("V",) * 4 + ("W",) * 4
    edges = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        u = draw(st.integers(min_value=0, max_value=3))
        v = draw(st.integers(min_value=4, max_value=7))
        pairs = draw(
            st.frozensets(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=4)
        )
        edges.append(RelEdge(u, v, draw(rationals("positive")), Relation(3, 2, pairs)))
    return RelationalInstance(8, 3, 2, tuple(edges), sides)


@settings(max_examples=25, deadline=None)
@given(bipartite_over_the_block())
def test_bipartite_relational_over_the_block_matches_reference(inst):
    result = brute_force_relational(inst)
    assert (result.labeling, result.visited) == ref_brute_force_relational(inst)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(gugp_instances(), relational_instances(), bipartite_over_the_block()),
    st.booleans(),
)
def test_compiled_scan_of_a_game_yields_the_reference_stream(inst, positive):
    _, domains = label_space(inst, 10**6)
    weights = inst.integer_weights[1]
    if positive:
        weights = [max(w, 0) for w in weights]
    if isinstance(inst, GugpInstance):
        tables = pair_tables(inst.edges, weights, inst.k, inst.k)
    else:
        tables = pair_tables(inst.edges, weights, inst.k1, inst.k2)
    expected = scan_stream(ref_prefix_scan(domains, tables))
    # the first scan compiles the plan, the second reads the held one
    assert compiled_stream(scan(inst, domains, positive)) == expected
    assert compiled_stream(scan(inst, domains, positive)) == expected


def ref_plan(layout, tables):
    """The plan from dense tables, the route the per-edge ``_plan``
    replaced: every oriented pair's ``pair_tables`` table, each entry times
    the AND of its two label masks inside the block, or times its block
    label's mask from a prefix vertex into the block."""
    domains, split, _, masks = layout[:4]
    later = [[] for _ in range(split)]
    block_row = layout.bias * layout.ones
    cross = {}
    for (u, v), table in tables.items():
        if u > v:
            u, v, table = v, u, [list(col) for col in zip(*table)]
        if v < split:
            later[v].append((u, table))
        elif u >= split:
            for row, at_u in zip(table[1:], masks[u]):
                block_row += sum(w * (at_u & at) for w, at in zip(row[1:], masks[v]))
        else:
            by_label = cross.setdefault(u, dict.fromkeys(domains[u], 0))
            for a in by_label:
                by_label[a] += sum(map(operator.mul, table[a][1:], masks[v]))
    return Plan(later, block_row, cross)


def plan_parts(layout, plan):
    """A plan as plain values: its block row's scores; each prefix vertex's
    offsets, unpacked around the bias, per label; and per prefix vertex x
    its tables with each earlier vertex y, both orientations summed and cut
    to the two label ranges.  Offsets and tables that are all zero, which
    the walk reads as absent, are left out."""
    domains, split = layout[:2]
    later, block_row, cross = plan

    def scores(row):
        return [lane - layout.bias for lane in layout.lanes(row)]

    offsets = {
        x: [scores(layout.bias * layout.ones + by_label[a]) for a in domains[x]]
        for x, by_label in cross.items()
    }
    tables = []
    for x in range(split):
        summed = {}
        for y, table in later[x]:
            cut = [row[: len(domains[x]) + 1] for row in table[: len(domains[y]) + 1]]
            held = summed.setdefault(y, [[0] * len(row) for row in cut])
            for row, add in zip(held, cut):
                row[:] = map(operator.add, row, add)
        tables.append({y: t for y, t in summed.items() if any(map(any, t))})
    offsets = {x: rows for x, rows in offsets.items() if any(map(any, rows))}
    return scores(block_row), offsets, tables


@st.composite
def plan_games(draw):
    """Games for the plan oracle, most of them past one block.  GUGP: 1 to 9
    vertices with 1 to 4 labels, or 2 with 244 (an empty block); weights of
    mixed signs or all of one sign; edges that may repeat an earlier pair,
    in either orientation.  REL: 2 to 9 vertices, either one label set or
    bipartite with k1 and k2 drawn apart and each vertex's side drawn."""
    if draw(st.booleans()):
        shapes = [(n, k) for n in range(1, 10) for k in range(1, 5)] + [(2, 244)]
        n, k = draw(st.sampled_from(shapes))
        signs = draw(st.sampled_from(["any", "negative", "positive"]))
        ends, edges = [], []
        for _ in range(draw(st.integers(0, 12)) if n > 1 else 0):
            if ends and draw(st.booleans()):
                u, v = draw(st.sampled_from(ends))[:: draw(st.sampled_from([1, -1]))]
            else:
                u = draw(st.integers(0, n - 1))
                v = (u + draw(st.integers(1, n - 1))) % n
            ends.append((u, v))
            edges.append(GugpEdge(u, v, draw(rationals(signs)), draw(permutations(k))))
        return GugpInstance(n, k, tuple(edges))
    n = draw(st.integers(2, 9))
    k1 = draw(st.integers(1, 4))
    sides = None
    if draw(st.booleans()):
        sides = tuple(draw(st.sampled_from("VW")) for _ in range(n))
    k2 = k1 if sides is None else draw(st.integers(1, 4))
    lefts = [x for x in range(n) if sides is None or sides[x] == "V"]
    rights = [x for x in range(n) if sides is None or sides[x] == "W"]
    edges = []
    for _ in range(draw(st.integers(0, 10)) if lefts and rights else 0):
        u = draw(st.sampled_from(lefts))
        v = draw(st.sampled_from([x for x in rights if x != u]))
        label_pairs = st.tuples(st.integers(1, k1), st.integers(1, k2))
        rel = Relation(k1, k2, draw(st.frozensets(label_pairs, max_size=6)))
        edges.append(RelEdge(u, v, draw(rationals("positive")), rel))
    return RelationalInstance(n, k1, k2, tuple(edges), sides)


# seven 3-label vertices, prefix 0, 1 and block 2..6: parallel edges in both
# orientations between prefix vertices, across the split and in the block
PLAN_MIXED = gugp(
    7,
    3,
    (0, 1, 2, perm(2, 3, 1)),
    (1, 0, -1, perm(1, 3, 2)),
    (0, 1, -3, perm(3, 1, 2)),
    (0, 4, 3, perm(1, 2, 3)),
    (4, 0, -2, perm(3, 2, 1)),
    (6, 1, 2, perm(2, 1, 3)),
    (1, 6, 1, perm(2, 1, 3)),
    (2, 6, 1, perm(3, 1, 2)),
    (6, 2, -2, perm(2, 3, 1)),
    (2, 6, 5, perm(1, 3, 2)),
)
# the shape of the CI's bipartite REL game and nine of its edges: k1 4, k2 3,
# sides alternating from V, so that V vertices 0, 2, 4 lie in the prefix 0..5
# and 6, 8 in the block 6..9
PLAN_BIPARTITE = RelationalInstance(
    10,
    4,
    3,
    tuple(
        RelEdge(u, v, Fraction(w), Relation(4, 3, pairs))
        for u, v, w, pairs in [
            (0, 1, "3/7", {(1, 1), (2, 2), (3, 3), (4, 1)}),
            (0, 1, "2/5", {(1, 2), (2, 3), (4, 3)}),
            (4, 3, "1/2", {(1, 3), (2, 1), (2, 2), (3, 2), (4, 3)}),
            (0, 7, "7/11", {(1, 3), (2, 1), (3, 2), (4, 2)}),
            (2, 9, "4/13", {(1, 1), (3, 3), (4, 1)}),
            (6, 1, "6/19", {(1, 2), (2, 3), (3, 1), (4, 1)}),
            (8, 5, "10/29", {(3, 3), (4, 2)}),
            (6, 7, "11/31", {(1, 1), (2, 2), (3, 3), (4, 3)}),
            (6, 9, "13/41", {(2, 2), (4, 1)}),
        ]
    ),
    ("V", "W") * 5,
)
# all negative, so the positive plan has no edge left
PLAN_ALL_NEGATIVE = gugp(
    8, 3, *[(u, (u + 3) % 8, -1 - u, cyclic_shift(3, u)) for u in range(8)]
)
# split 0: 3^5 labelings, the whole space one block
PLAN_ONE_BLOCK = gugp(
    5, 3, (0, 4, 2, cyclic_shift(3, 1)), (3, 1, -1, cyclic_shift(3, 2))
)
# split n: 244 labels, past one block on their own, so every vertex is prefix
PLAN_NO_BLOCK = gugp(
    2, 244, (0, 1, 2, cyclic_shift(244, 5)), (1, 0, -3, cyclic_shift(244, 7))
)


@settings(max_examples=150, deadline=None)
@given(plan_games(), st.booleans())
@example(PLAN_MIXED, False)
@example(PLAN_MIXED, True)
@example(PLAN_BIPARTITE, False)
@example(PLAN_ALL_NEGATIVE, True)
@example(PLAN_ONE_BLOCK, False)
@example(PLAN_NO_BLOCK, False)
def test_per_edge_plan_matches_the_dense_table_plan(game, positive):
    _, domains = label_space(game, 10**6)
    weights = game.integer_weights[1]
    layout = _layout(domains, weights)
    if positive:
        weights = [max(w, 0) for w in weights]
    k1, k2 = (game.k, game.k) if isinstance(game, GugpInstance) else (game.k1, game.k2)
    expected = ref_plan(layout, pair_tables(game.edges, weights, k1, k2))
    plan = _plan(layout, game.edges, weights)
    assert plan_parts(layout, plan) == plan_parts(layout, expected)


@settings(max_examples=100, deadline=None)
@given(
    scan_domains().flatmap(
        lambda d: st.tuples(st.just(d), scan_tables(d), scan_tables(d))
    ),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=6),
)
def test_strip_scan_matches_reference_on_mismatched_tables(
    domains_and_tables, sigma, w_plus, scale
):
    domains, tables_all, tables_pos = domains_and_tables
    args = (domains, tables_all, tables_pos, sigma, w_plus, scale)
    assert strip_scan(*args) == ref_strip_scan(*args)


def test_strip_scan_walks_only_the_failing_rows():
    # one prefix-block table scores only the labelings with f(0) = 2 and
    # f(6) = 3: a third of the row in each of three leaves
    domains = [range(1, 4)] * 7
    table = [[PAD] * 4] + [[PAD, 0, 0, 0] for _ in range(3)]
    table[2][3] = 5
    args = (domains, {(0, 6): table}, {}, 10, 10, 2)
    (cases, witnesses, best_orig, best_stripped), walks = walked_strip_scan(args)
    assert (cases, witnesses, best_orig, best_stripped) == ref_strip_scan(*args)
    # 3 * 3^4 labelings fail; the first failing row fills the record
    assert len(witnesses) == MAX_RECORDED_WITNESSES < 3 * 3**4
    assert walks == 1
    assert witnesses[0] == (
        None, (2, 1, 1, 1, 1, 1, 3), "W'(f) <= W(f) + |W-|", (Fraction(5), Fraction(5, 2))
    )
    assert best_orig == (5, (2, 1, 1, 1, 1, 1, 3))
    assert best_stripped == (10, (1,) * 7)


class WalkedBlock(list):
    """A block list that counts how often it is iterated: ``_strip_scan``
    iterates the block only to walk a failing row labeling by labeling."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def walked_strip_scan(args):
    """``strip_scan(*args)`` and the number of rows it walked."""
    domains, tables_all, tables_pos, *totals = args
    layout, *leaves = compiled_scan(domains, tables_all, tables_pos)
    layout = layout._replace(block=WalkedBlock(layout.block))
    return _strip_scan(layout, *leaves, *totals), layout.block.walks


def pair_table(entries):
    """A (0, 1) table on two 2-label vertices, padded in row and column 0."""
    return {(0, 1): [[PAD] * 3] + [[PAD, *row] for row in entries]}


# sigma 4 and W+ 6, so |W-| = 2 and c = 2 on the single leaf: W(f) = 4 for
# every f and W'(f) = 6 - gap(f).  The gaps 2, 0, 1, 2 put W'(f) = W(f) at
# f = (1, 1), (2, 2) and W'(f) = W(f) + |W-| at f = (1, 2).
BOUNDARY_ALL = [[0, 0], [0, 0]]
BOUNDARY_POS = [[2, 0], [1, 2]]


def boundary_args(entries_all, entries_pos):
    return [range(1, 3)] * 2, pair_table(entries_all), pair_table(entries_pos), 4, 6, 1


def test_strip_scan_boundary_row_has_no_witness_and_is_not_walked():
    args = boundary_args(BOUNDARY_ALL, BOUNDARY_POS)
    (cases, witnesses, best_orig, best_stripped), walks = walked_strip_scan(args)
    assert (cases, witnesses, best_orig, best_stripped) == ref_strip_scan(*args)
    assert witnesses == [] and walks == 0
    assert best_orig == (4, (1, 1)) and best_stripped == (4, (1, 1))


@pytest.mark.parametrize(
    "side, label, entry, bound",
    [
        ("pos", (2, 1), 3, "W(f) <= W'(f)"),  # gap 3 = c + 1
        ("all", (1, 1), -1, "W(f) <= W'(f)"),  # gap 3 = c + 1
        ("pos", (1, 2), -1, "W'(f) <= W(f) + |W-|"),  # gap -1 = c - |W-| - 1
        ("all", (2, 2), 3, "W'(f) <= W(f) + |W-|"),  # gap -1 = c - |W-| - 1
    ],
)
def test_strip_scan_one_unit_past_each_bound_gives_the_reference_witness(
    side, label, entry, bound
):
    entries = {"all": BOUNDARY_ALL, "pos": BOUNDARY_POS}
    entries[side] = [row[:] for row in entries[side]]
    entries[side][label[0] - 1][label[1] - 1] = entry
    args = boundary_args(entries["all"], entries["pos"])
    result, walks = walked_strip_scan(args)
    assert result == ref_strip_scan(*args)
    assert [(f, rule) for _, f, rule, _ in result[1]] == [(label, bound)]
    assert walks == 1


# packed rows: the lane predicate and every lane width


def packed(lanes, step):
    """One row of ``step``-byte lanes, lane 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(step, "little") for v in lanes), "little")


@pytest.mark.parametrize("step", [1, 2, 4, 8, 9, 16])
def test_lane_predicate_at_the_edges_of_its_range(step):
    # scores up to 2^(8 step - 4) in absolute value need exactly step bytes:
    # one weight of that size, or of either sign in two halves
    layout = _layout([range(1, 4)], [1 << 8 * step - 4])
    guard = layout.guard
    assert guard == 1 << 8 * step - 1
    assert _layout([range(1, 4)], [-1 << 8 * step - 5] * 2) == layout
    # twice the bound would put four times it on the guard bit
    assert _layout([range(1, 4)], [1 << 8 * step - 3]).guard > guard
    lanes = [0, guard - 1, 5]
    row, reached = packed(lanes, step), layout.lane_test()
    for t in [-guard, -1, 0, 1, 5, 6, guard - 1, guard, guard + 1, 3 * guard]:
        want = sum(guard << 8 * step * j for j, lane in enumerate(lanes) if lane >= t)
        assert reached(row, t) == want, t
    assert reached(row, 0) == layout.guards == layout.ones * guard
    assert reached(row, guard - 1) == guard << 8 * step
    assert reached(row, guard) == 0
    assert list(layout.lanes(row)) == lanes
    assert layout.top(row) == (guard - 1 - layout.bias, 1)
    # the first of equal maxima
    assert layout.top(packed([3, 7, 7], step)) == (7 - layout.bias, 1)


def test_thresholds_past_either_end_of_the_lanes_in_both_consumers(monkeypatch):
    # the lanes bound only the block's and the crossing edges' scores, 2,
    # while the edge between prefix vertices 0 and 1 weighs up to 1000: the
    # second leaf's base puts its threshold at or below 0 and the third's
    # at or above the guard, in brute force and in the strip-bounds scan
    domains = [range(1, 3)] * 10
    block, cross = [[PAD] * 3, [PAD, 1, 0], [PAD, 0, 1]], [[PAD] * 3, [PAD, 0, 1], [PAD, 1, 0]]
    tables_all = {
        (0, 1): [[PAD] * 3, [PAD, 0, 1000], [PAD, -1000, 500]],
        (3, 9): block,
        (1, 5): cross,
    }
    tables_pos = {(0, 1): [[PAD] * 3, [PAD, 0, 1000], [PAD, 0, 500]], (3, 9): block}
    layout = _layout(domains, [2])
    assert layout.split == 2

    def leaves(tables):
        return _leaves(layout, _plan(layout, *table_edges(domains, tables)))

    thresholds, lane_test = [], Layout.lane_test

    def recorded(self):
        reached = lane_test(self)

        def spy(row, t):
            thresholds.append(t)
            return reached(row, t)

        return spy

    monkeypatch.setattr(Layout, "lane_test", recorded)
    scores = ref_scores(domains, tables_all)
    top = max(score for _, score in scores)
    first = next(f for f, score in scores if score == top)
    assert _best_labeling(layout, leaves(tables_all)) == first
    assert min(thresholds) <= 0 and max(thresholds) >= layout.guard
    thresholds.clear()
    args = (1500, 2000, 1)
    found = _strip_scan(layout, leaves(tables_all), leaves(tables_pos), *args)
    assert found == ref_strip_scan(domains, tables_all, tables_pos, *args)
    assert min(thresholds) <= 0 and max(thresholds) >= layout.guard


# lane widths in bytes: three array typecodes and one past 64 bits
WIDE_STEPS = (2, 4, 8, 9)


@st.composite
def wide_lane_games(draw):
    """A game and its lane width in bytes: integer weights, with mixed signs,
    all negative, tied or relational, scaled so that four times their
    absolute sum fills a lane of the drawn width up to its guard bit."""
    step = draw(st.sampled_from(WIDE_STEPS))
    kind = draw(st.sampled_from(["mixed", "negative", "ties", "rel"]))
    k = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=2, max_value=7 if k == 2 else 6))
    ends = [
        (u, (u + d) % n)
        for u, d in draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                min_size=1,
                max_size=8,
            )
        )
    ]
    unit = {
        "mixed": st.integers(-5, 5).filter(bool),
        "negative": st.integers(-5, -1),
        "ties": st.just(1),
        "rel": st.integers(1, 5),
    }[kind]
    units = [draw(unit) for _ in ends]
    scale = (1 << 8 * step - 4) // sum(map(abs, units)) + draw(st.integers(0, 1))
    weights = [Fraction(u * scale) for u in units]
    if kind == "rel":
        pairs = st.frozensets(st.tuples(st.integers(1, k), st.integers(1, k)))
        edges = [
            RelEdge(u, v, w, Relation(k, k, draw(pairs)))
            for (u, v), w in zip(ends, weights)
        ]
        return RelationalInstance(n, k, k, tuple(edges)), step
    # tied games draw each permutation from two, so most labelings tie
    perms = st.sampled_from([Permutation.identity(k), cyclic_shift(k, 1)])
    perms = perms if kind == "ties" else permutations(k)
    edges = [GugpEdge(u, v, w, draw(perms)) for (u, v), w in zip(ends, weights)]
    return GugpInstance(n, k, tuple(edges)), step


def first_objective(inst):
    """The first maximizing objective the game's weight signs admit."""
    for objective in (Objective.MAX_UGP, Objective.MAX_PWT, Objective.MAX_NWA):
        try:
            require_objective(inst, objective)
        except ObjectiveMismatchError:
            continue
        return objective
    return None


@settings(max_examples=80, deadline=None)
@given(wide_lane_games())
def test_wide_lanes_match_the_reference_scans(game):
    inst, step = game
    _, domains = label_space(inst, 10**6)
    scale, weights = inst.integer_weights
    k1, k2 = (inst.k, inst.k) if isinstance(inst, GugpInstance) else (inst.k1, inst.k2)
    tables = pair_tables(inst.edges, weights, k1, k2)
    tables_pos = pair_tables(inst.edges, [max(w, 0) for w in weights], k1, k2)
    layout, leaves = scan(inst, domains)
    assert layout.guard == 1 << 8 * step - 1
    assert compiled_stream((layout, leaves)) == scan_stream(ref_prefix_scan(domains, tables))
    scores = ref_scores(domains, tables)
    top = max(score for _, score in scores)
    first = next(f for f, score in scores if score == top)
    assert _best_labeling(*scan(inst, domains)) == first
    objective = first_objective(inst)
    if objective is not None:
        result = brute_force(inst, objective)
        assert (result.labeling, result.visited) == (first, len(scores))
        assert result.value == labeling_value(inst, first, objective)
    sigma, w_plus = sum(weights), sum(w for w in weights if w > 0)
    _, leaves_all = scan(inst, domains)
    _, leaves_pos = scan(inst, domains, positive=True)
    found = _strip_scan(layout, leaves_all, leaves_pos, sigma, w_plus, scale)
    assert found == ref_strip_scan(domains, tables, tables_pos, sigma, w_plus, scale)
    # the negated game's tables in the positive set's place: gaps of both
    # signs, as wide as the lanes allow, and witnesses to record
    negated = {pair: [[-x for x in row] for row in t] for pair, t in tables.items()}
    _, leaves_all = scan(inst, domains)
    leaves_neg = _leaves(layout, _plan(layout, inst.edges, [-w for w in weights]))
    found = _strip_scan(layout, leaves_all, leaves_neg, sigma, w_plus, scale)
    assert found == ref_strip_scan(domains, tables, negated, sigma, w_plus, scale)


def ref_layout(domains, weights):
    """The layout built afresh per game, in lists and a dict: the split, the
    block and one ``int.from_bytes`` per block vertex and label."""
    bound = sum(map(abs, weights))
    split, size = len(domains), 1
    while split and size * len(domains[split - 1]) <= BLOCK_LABELINGS:
        split -= 1
        size *= len(domains[split])
    block = list(itertools.product(*domains[split:]))
    need = (4 * bound).bit_length() // 8 + 1
    step = next((width for width in (1, 2, 4, 8) if width >= need), need)
    one = (1).to_bytes(step, "little")
    masks, run = {}, len(block)
    for y in range(split, len(domains)):
        k = len(domains[y])
        run //= k
        first = (one * run + bytes(step * run * (k - 1))) * (len(block) // (run * k))
        shifts = range(0, 8 * step * run * k, 8 * step * run)
        masks[y] = [int.from_bytes(first, "little") << shift for shift in shifts]
    ones = int.from_bytes(one * len(block), "little")
    guard = 1 << 8 * step - 1
    return Layout(domains, split, block, masks, bound, ones, guard, ones * guard)


def listed(layout):
    """``layout`` with its shared block and masks in ``ref_layout``'s lists."""
    masks = {y: list(at_y) for y, at_y in layout.masks.items()}
    return layout._replace(block=list(layout.block), masks=masks)


# the lane widths with an array typecode, then two read by byte slices
LANE_WIDTHS = (1, 2, 4, 8, 9, 11)


def width_bounds(step):
    """The least and the largest bound whose layout has ``step``-byte lanes:
    4 bound must fit below the top bit of ``step`` bytes but not of the next
    narrower width."""
    narrower = step - 1 if step > 8 else max((w for w in (1, 2, 4) if w < step), default=0)
    return (1 << 8 * narrower - 3) if narrower else 0, (1 << 8 * step - 3) - 1


@st.composite
def label_counts(draw):
    """1..10 vertices, every one with k labels, or a bipartite mix of k1 and
    k2 != k1 labels; both more and fewer than ``BLOCK_LABELINGS`` labelings."""
    n = draw(st.integers(min_value=1, max_value=10))
    k1 = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return (k1,) * n
    k2 = draw(st.integers(min_value=1, max_value=5).filter(lambda k: k != k1))
    return tuple(draw(st.sampled_from((k1, k2))) for _ in range(n))


@pytest.mark.parametrize("step", LANE_WIDTHS)
@settings(max_examples=40, deadline=None)
@given(counts=label_counts(), at=st.fractions(min_value=0, max_value=1))
@example(counts=(2,) * 8, at=Fraction(0))  # 256 labelings: all block
@example(counts=(2,) * 9, at=Fraction(1))  # 512: one prefix vertex
@example(counts=(4,) * 4, at=Fraction(1))  # 256 in k = 4
@example(counts=(3,) * 6, at=Fraction(0))  # 729: 243 in the block
@example(counts=(4, 3) * 3, at=Fraction(1))  # a bipartite mix past the block
@example(counts=(3, 4, 4, 3, 4), at=Fraction(0))  # a bipartite mix within it
@example(counts=(1, 5, 1), at=Fraction(1))  # one-label vertices
def test_shared_layout_matches_the_per_game_reference(step, counts, at):
    low, high = width_bounds(step)
    bound = low + int((high - low) * at)
    weights = [bound // 3, -(bound - bound // 3), 0]
    domains = [range(1, k + 1) for k in counts]
    layout = _layout(domains, weights)
    assert layout.guard == 1 << 8 * step - 1
    assert listed(layout) == ref_layout(domains, weights)
    assert type(layout.block) is tuple and type(layout.masks) is types.MappingProxyType
    assert all(type(at_y) is tuple for at_y in layout.masks.values())


def test_games_of_one_shape_share_the_layout_shape_and_keep_their_bias():
    edges = [(0, 1, perm(2, 3, 1)), (1, 2, perm(1, 3, 2)), (3, 0, perm(3, 1, 2))]
    first = gugp(4, 3, *((u, v, w, p) for (u, v, p), w in zip(edges, (2, -1, 3))))
    second = gugp(
        4, 3, *((u, v, w, p) for (u, v, p), w in zip(edges, ("1/2", "2/3", "-1/6")))
    )
    _, domains = label_space(first, 10**6)
    (a, _), (b, _) = scan(first, domains), scan(second, domains)
    assert (a.bias, b.bias) == (6, 8)
    assert a.guard == b.guard == 1 << 7
    for name in ("split", "block", "masks", "ones", "guard", "guards"):
        assert getattr(a, name) is getattr(b, name), name
    for game in (first, second):
        result = brute_force(game, Objective.MIN_PWT)
        assert result.labeling == ref_brute_force(game)[0]
    with pytest.raises(TypeError):
        a.block[0] = (2, 2, 2, 2)
    with pytest.raises(TypeError):
        a.masks[0] = (0, 0, 0)
    with pytest.raises(TypeError):
        a.masks[0][0] = 0
    with pytest.raises(AttributeError):
        a.block.append((1, 1, 1, 1))
    assert listed(a) == ref_layout(domains, first.integer_weights[1])


def test_layout_shape_memo_stays_bounded_and_rebuilds_an_evicted_shape():
    # k = 2 rings of 2..6 vertices at 18 lane widths: 90 shapes, past the bound
    def game(n, step):
        heavy = width_bounds(step)[0] or 1
        ring = [(v, (v + 1) % n, heavy if v == 0 else 1, perm(2, 1)) for v in range(n)]
        return gugp(n, 2, *ring)

    shapes = [(n, step) for n in range(2, 7) for step in (*LANE_WIDTHS, *range(12, 24))]
    assert len(shapes) > solvers.LAYOUT_SHAPES
    solvers._shape.cache_clear()
    first = brute_force(game(*shapes[0]), Objective.MAX_UGP)
    for shape in shapes[1:]:
        brute_force(game(*shape), Objective.MAX_UGP)
        assert solvers._shape.cache_info().currsize <= solvers.LAYOUT_SHAPES
    # every game met a shape of its own
    assert solvers._shape.cache_info().misses == len(shapes)
    again = brute_force(game(*shapes[0]), Objective.MAX_UGP)
    assert solvers._shape.cache_info().misses == len(shapes) + 1
    assert (again.value, again.labeling) == (first.value, first.labeling)
    assert again.labeling == ref_brute_force(game(*shapes[0]))[0]


# ---------------------------------------------------------------------------
# strip bounds


@settings(max_examples=40, deadline=None)
@given(gugp_instances(max_n=4, max_k=3, max_m=7))
def test_strip_bounds_matches_reference(inst):
    m = metrics(inst)
    if m.sigma <= 0 or m.w_plus == 0:
        return
    report = check_strip_bounds(inst)
    cases, witnesses, notes = ref_strip_bounds(inst)
    assert (report.cases, list(report.witnesses), report.notes) == (
        cases,
        witnesses,
        notes,
    )


@pytest.mark.parametrize("seed", range(4))
def test_strip_bounds_matches_reference_seeded(seed):
    inst = seeded_gugp(seed, n=5, m=12, k=3, max_ratio=Fraction(1, 2))
    report = check_strip_bounds(inst)
    cases, witnesses, notes = ref_strip_bounds(inst)
    assert (report.cases, list(report.witnesses), report.notes) == (
        cases,
        witnesses,
        notes,
    )


# ---------------------------------------------------------------------------
# bundle checks


# one relation per residue: off it, (bundle + a + b) % 3 == 0 or a == b
RESIDUE_RELATIONS = [
    Relation(
        6,
        6,
        {
            (a, b)
            for a in range(1, 7)
            for b in range(1, 7)
            if not ((r + a + b) % 3 == 0 or a == b)
        },
    )
    for r in range(3)
]


def collision_or_diagonal(bundle):
    return RESIDUE_RELATIONS[bundle % 3]


def first_residue(_bundle):
    return RESIDUE_RELATIONS[0]


@settings(max_examples=80, deadline=None)
@given(bundled_gadgets(), st.sampled_from([collision_or_diagonal, first_residue]))
def test_bundle_checks_match_reference(gadget_and_bundles, relation_of):
    gadget, bundles = gadget_and_bundles
    exactly_one = check_bundle_exactly_one(gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (exactly_one.cases, list(exactly_one.witnesses)) == (cases, witnesses[:50])
    indicator = check_indicator_weights(gadget, bundles, relation_of)
    cases, witnesses = ref_indicator_weights(gadget, bundles, misses(relation_of))
    assert (indicator.cases, list(indicator.witnesses)) == (cases, witnesses[:50])


@pytest.mark.parametrize("fold", [1, 2])
def test_bundle_checks_match_reference_on_gadgets(fold):
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    gadget, bundles = pwt1_gadget(repeat_max3cut(4, pairs, fold))
    relation_of = coordinate_collision_predicate(fold)
    # a wrong relation makes every bundle fail somewhere
    wrong = coordinate_collision_predicate(fold + 1)
    for lookup in (relation_of, wrong):
        report = check_indicator_weights(gadget, bundles, lookup)
        cases, witnesses = ref_indicator_weights(gadget, bundles, misses(lookup))
        assert report.cases == cases
        assert list(report.witnesses) == witnesses[:50]
    report = check_bundle_exactly_one(gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (report.cases, list(report.witnesses)) == (cases, witnesses[:50])


def ref_gadget_metrics(family, param, source_edges):
    """The two closed-form tables ``check_gadget_metrics`` held, one per
    family, before its one rule in (k, d)."""
    if family == "pwt1":
        three, two = 3**param, 2**param
        return {
            "w_plus": Fraction(two * (three - two), three - 1) * source_edges,
            "w_minus": Fraction(-(two - 1) * (three - two), three - 1) * source_edges,
            "sigma": Fraction(three - two, three - 1) * source_edges,
            "ratio": Fraction(two - 1, two),
        }
    k = param
    return {
        "w_plus": Fraction(4 * (k - 1), 2 * k - 1) * source_edges,
        "w_minus": Fraction(-2 * (k - 1), 2 * k - 1) * source_edges,
        "sigma": Fraction(2 * k - 2, 2 * k - 1) * source_edges,
        "ratio": Fraction(1, 2),
    }


def metrics_gadget(w_plus, w_minus):
    """A one-label game whose W+ and W- are the two given weights."""
    identity = Permutation((1,))
    edges = (GugpEdge(0, 1, w_plus, identity), GugpEdge(0, 1, w_minus, identity))
    return GugpInstance(2, 1, edges)


@pytest.mark.parametrize("source_edges", [1, 2, 7])
@pytest.mark.parametrize(
    "family, param",
    [("pwt1", fold) for fold in range(1, 7)]
    + [("pwt-half", half) for half in range(2, 13)],
)
def test_gadget_metrics_rule_matches_the_closed_form_tables(
    family, param, source_edges
):
    expected = ref_gadget_metrics(family, param, source_edges)
    gadget = metrics_gadget(expected["w_plus"], expected["w_minus"])
    assert metrics(gadget).sigma == expected["sigma"]
    assert metrics(gadget).ratio == expected["ratio"]
    report = check_gadget_metrics(gadget, family, param, source_edges)
    assert (report.claim, report.cases, report.passed) == (f"{family}-metrics", 4, True)
    # twice the weights: every weight sum fails, each against the table's value
    doubled = metrics_gadget(2 * expected["w_plus"], 2 * expected["w_minus"])
    report = check_gadget_metrics(doubled, family, param, source_edges)
    assert [w[:3] for w in report.witnesses] == [
        (None, name, expected[name]) for name in ("w_plus", "w_minus", "sigma")
    ]


def test_gadget_metrics_rule_refuses_an_unknown_family():
    gadget = metrics_gadget(Fraction(2), Fraction(-1))
    with pytest.raises(UsageError, match="unknown gadget family 'pwt2'"):
        check_gadget_metrics(gadget, "pwt2", 1, 1)


def shared_and_perturbed_gadget():
    """A fold-2 pwt1 gadget, whose bundles all share one list of
    ``(pi, weight)`` objects, with middle bundles changed: bundles 3 and 4
    repeat one permutation the same way (both checks fail), bundle 6
    carries a different weight (the indicator fails), bundle 9 an equal
    weight in a distinct ``Fraction`` and bundle 12 equal but distinct
    ``Permutation`` objects (both pass).  Returns the gadget, its bundles and the number of
    fresh bundles each check derives when it shares them: the weights do
    not enter the exactly-one check."""
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    gadget, bundles = pwt1_gadget(repeat_max3cut(4, pairs, 2))
    edges = list(gadget.edges)

    def replace(bundle, offset, **fields):
        j = bundle * bundles.size + offset
        e = edges[j]
        parts = {"u": e.u, "v": e.v, "weight": e.weight, "pi": e.pi, **fields}
        edges[j] = GugpEdge(**parts)

    replace(3, 0, pi=edges[1].pi)
    replace(4, 0, pi=edges[1].pi)
    replace(6, 4, weight=edges[4].weight + 1)
    replace(9, 4, weight=Fraction(edges[4].weight.numerator, edges[4].weight.denominator))
    for offset in range(gadget.k):
        replace(12, offset, pi=Permutation(tuple(edges[offset].pi.image)))
    # runs start at bundles 0, 3, 5, 12 and 13, and for the indicator check
    # also at 6 and 7; bundle 9 stays in the run of bundle 7
    return GugpInstance(gadget.n, gadget.k, tuple(edges)), bundles, (5, 7)


def counting_images(gadget):
    """The gadget with each distinct permutation object replaced by one
    copy that counts the reads of its ``image``, sharing kept, and the
    counter, cleared.  A bundle check reads each image of a bundle it
    derives anything from once and no image of a bundle it reuses, so the
    count over the bundle size is the number of fresh bundles."""
    reads = collections.Counter()

    class CountedPermutation(Permutation):
        def __getattribute__(self, name):
            if name == "image":
                reads["image"] += 1
            return super().__getattribute__(name)

    copies = {}
    for e in gadget.edges:
        if id(e.pi) not in copies:
            copies[id(e.pi)] = CountedPermutation(e.pi.image)
    edges = tuple(dataclasses.replace(e, pi=copies[id(e.pi)]) for e in gadget.edges)
    counted = GugpInstance(gadget.n, gadget.k, edges)
    reads.clear()
    return counted, reads


def fresh_bundles(check, gadget, bundles, *args):
    """The report of one bundle check on a counting copy of the gadget, and
    the number of bundles it derived afresh."""
    counted, reads = counting_images(gadget)
    report = check(counted, bundles, *args)
    assert reads["image"] % bundles.size == 0
    return report, reads["image"] // bundles.size


def test_bundle_checks_match_reference_on_shared_and_perturbed_bundles():
    gadget, bundles, (unweighted_runs, weighted_runs) = shared_and_perturbed_gadget()
    exactly_one, fresh = fresh_bundles(check_bundle_exactly_one, gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (exactly_one.cases, list(exactly_one.witnesses)) == (cases, witnesses[:50])
    assert {w[0] for w in exactly_one.witnesses} == {3, 4}
    assert fresh == unweighted_runs
    for fold in (2, 3):
        relation_of = coordinate_collision_predicate(fold)
        indicator, fresh = fresh_bundles(
            check_indicator_weights, gadget, bundles, relation_of
        )
        cases, witnesses = ref_indicator_weights(gadget, bundles, misses(relation_of))
        assert (indicator.cases, list(indicator.witnesses)) == (cases, witnesses[:50])
        assert fresh == weighted_runs
    # with the right relation only the perturbed bundles fail
    _, witnesses = ref_indicator_weights(
        gadget, bundles, misses(coordinate_collision_predicate(2))
    )
    assert {w[0] for w in witnesses} == {3, 4, 6}


def test_parsed_gadget_builds_one_table_per_check():
    # parsing shares one Permutation per distinct image, so every bundle of
    # a parsed pwt1 gadget reuses what the first bundle derived
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    gadget, bundles = pwt1_gadget(repeat_max3cut(4, pairs, 2))
    parsed = parse(serialize(gadget))
    report, fresh = fresh_bundles(check_bundle_exactly_one, parsed, bundles)
    assert report.passed and fresh == 1
    relation_of = coordinate_collision_predicate(2)
    report, fresh = fresh_bundles(check_indicator_weights, parsed, bundles, relation_of)
    assert report.passed and fresh == 1


# ---------------------------------------------------------------------------
# smoothness


@st.composite
def projection_games(draw):
    """Bipartite games whose every relation is a projection of [k1] onto
    [k2], with parallel edges and isolated vertices allowed."""
    k1, k2 = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.integers(0, left - 1))
        v = draw(st.integers(left, left + right - 1))
        images = draw(st.lists(st.integers(1, k2), min_size=k1, max_size=k1))
        rel = Relation(k1, k2, frozenset(enumerate(images, 1)))
        edges.append(RelEdge(u, v, Fraction(1), rel))
    sides = ("V",) * left + ("W",) * right
    return RelationalInstance(left + right, k1, k2, tuple(edges), sides)


@settings(max_examples=80, deadline=None)
@given(projection_games())
def test_smoothness_matches_reference(inst):
    assert smoothness(inst) == ref_smoothness(inst)


# ---------------------------------------------------------------------------
# local search


@settings(max_examples=60, deadline=None)
@given(
    gugp_instances(signs="negative", max_n=6, max_k=4, max_m=12, min_k=2),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
)
def test_local_search_matches_reference(inst, seed):
    result = local_search_half(inst, seed=seed)
    assert (result.labeling, result.visited) == ref_local_search(inst, seed)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_local_search_matches_reference_seeded(seed, k):
    inst = seeded_gugp(7 + k, n=40, m=200, k=k, nwa=True)
    result = local_search_half(inst, seed=seed)
    assert (result.labeling, result.visited) == ref_local_search(inst, seed)


@settings(max_examples=60, deadline=None)
@given(
    gugp_instances(signs="negative", max_n=8, max_k=4, max_m=16, min_k=2),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
)
def test_local_search_matches_the_rescan_loop(inst, seed):
    result = local_search_half(inst, seed=seed)
    assert (result.labeling, result.visited) == rescan_local_search(inst, seed)


@pytest.mark.parametrize(
    "seed, n, m, k",
    [
        (None, 300, 1500, 5),
        (1, 300, 1500, 5),
        (None, 3000, 6000, 2),
        (1, 3000, 6000, 2),
        (2, 10000, 20000, 3),
    ],
)
def test_local_search_matches_the_rescan_loop_seeded(seed, n, m, k):
    inst = seeded_gugp(n + k, n=n, m=m, k=k, nwa=True)
    result = local_search_half(inst, seed=seed)
    assert (result.labeling, result.visited) == rescan_local_search(inst, seed)


class CountedInt(int):
    """An int whose order comparisons are counted; arithmetic on it, from
    either side, keeps the type."""

    comparisons = 0


def _keep_counted(name):
    op = getattr(int, name)
    return lambda a, *b: CountedInt(op(a, *b))


def _count_comparison(name):
    op = getattr(int, name)

    def compare(a, b):
        CountedInt.comparisons += 1
        return op(a, b)

    return compare


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
    setattr(CountedInt, _name, _keep_counted(_name))
for _name in ("__lt__", "__le__", "__gt__", "__ge__"):
    setattr(CountedInt, _name, _count_comparison(_name))


@pytest.mark.parametrize("seed", [None, 1])
def test_local_search_work_stays_within_n_plus_the_movers_degrees(monkeypatch, seed):
    """Every threshold test compares integer weights, so with counted weights
    the comparisons count the threshold tests, plus at most k + 1 per move
    (the step's guards and its choice of label) and 4m outside the search
    (the two ``metrics`` passes).  With the heap pushes they stay within
    2n + 4m + moves * (3 * max_deg + k + 2); a rescan from vertex 0 costs
    up to n threshold tests per move."""
    from gugp_workbench import solvers

    inst = seeded_gugp(5, n=3000, m=6000, k=2, nwa=True)
    expected = rescan_local_search(inst, seed)
    scale, weights = inst.integer_weights
    vars(inst)["integer_weights"] = (scale, tuple(map(CountedInt, weights)))
    pushes = []
    monkeypatch.setattr(
        solvers, "heappush", lambda heap, x: pushes.append(x) or heapq.heappush(heap, x)
    )
    CountedInt.comparisons = 0
    result = local_search_half(inst, seed=seed)
    assert (result.labeling, result.visited) == expected
    n, m, k, moves = inst.n, len(inst.edges), inst.k, result.visited
    degrees = collections.Counter(itertools.chain(*((e.u, e.v) for e in inst.edges)))
    max_deg = max(degrees.values())
    bound = 2 * n + 4 * m + moves * (3 * max_deg + k + 2)
    work = CountedInt.comparisons + len(pushes)
    assert 0 < len(pushes) and work <= bound
    # the instance is one where a rescan's cost is far above the bound
    assert moves * n > 10 * bound


def test_local_search_reads_the_rows_each_permutation_derives_once(monkeypatch):
    generated = seeded_gugp(12, n=40, m=200, k=5, nwa=True)
    # every third edge holds an equal copy: a distinct object with its own rows
    inst = GugpInstance(generated.n, generated.k, tuple(
        GugpEdge(e.u, e.v, e.weight, Permutation(e.pi.image) if i % 3 == 0 else e.pi)
        for i, e in enumerate(generated.edges)
    ))
    built = []
    derive = Permutation.rows.func
    rows = functools.cached_property(lambda pi: built.append(pi.image) or derive(pi))
    rows.__set_name__(Permutation, "rows")
    monkeypatch.setattr(Permutation, "rows", rows)
    result = local_search_half(inst)
    assert (result.labeling, result.visited) == ref_local_search(inst)
    distinct = len({id(e.pi) for e in inst.edges})
    assert len(built) == distinct < len(inst.edges)
    # a second pass reads the rows the first one derived
    assert local_search_half(inst) == result and len(built) == distinct


# ---------------------------------------------------------------------------
# generation and serialization


def ref_generate(spec):
    """The per-edge generator: each edge builds its own ``Fraction(num, den)``
    (negated by ``-``) and its own ``Permutation``, in the documented draw
    order, one ``below`` call per draw.  Returns the instance and the planted
    labeling (or None)."""
    stream = SplitMix64(spec.seed)

    def pair():
        u = stream.below(spec.n)
        v = stream.below(spec.n - 1)
        return u, v + 1 if v >= u else v

    def permutation(k):
        # descending Fisher-Yates, one ``below`` per swap
        image = list(range(1, k + 1))
        for i in range(k - 1, 0, -1):
            j = stream.below(i + 1)
            image[i], image[j] = image[j], image[i]
        return Permutation(tuple(image))

    def weight():
        num = 1 + stream.below(9)
        den = 1 + stream.below(9)
        return Fraction(num, den)

    if spec.family == "random-gugp":
        draw_signs = not spec.nwa and spec.max_ratio != 0
        for _ in range(10_000):
            edges = []
            for _ in range(spec.m):
                u, v = pair()
                pi = permutation(spec.k)
                w = weight()
                if spec.nwa:
                    w = -w
                elif draw_signs and stream.below(4) == 0:
                    w = -w
                edges.append(GugpEdge(u, v, w, pi))
            instance = GugpInstance(spec.n, spec.k, tuple(edges))
            ratio = ref_metrics(instance).ratio
            if spec.max_ratio is None or (ratio is not None and ratio <= spec.max_ratio):
                return instance, None
        raise AssertionError("no draw met the ratio bound")
    if spec.family == "random-tsp":
        weights = []
        for u in range(spec.n):
            for v in range(u + 1, spec.n):
                weights.append((u, v, weight()))
        return TspInstance(spec.n, tuple(weights)), None
    if spec.family == "planted-3col":
        while True:
            chi = tuple(1 + stream.below(3) for _ in range(spec.n))
            s1, s2, s3 = (chi.count(c) for c in (1, 2, 3))
            if spec.m <= s1 * s2 + s1 * s3 + s2 * s3:
                break
        differ = frozenset((a, b) for a in range(1, 4) for b in range(1, 4) if a != b)
        edges, seen = [], set()
        while len(edges) < spec.m:
            u, v = pair()
            low, high = min(u, v), max(u, v)
            if chi[low] != chi[high] and (low, high) not in seen:
                seen.add((low, high))
                edges.append(RelEdge(low, high, Fraction(1), Relation(3, 3, differ)))
        return RelationalInstance(spec.n, 3, 3, tuple(edges)), chi
    width = 2 * spec.k
    planted = None
    if spec.satisfiable:
        planted = tuple(1 + stream.below(width) for _ in range(spec.n))
    edges = []
    for _ in range(spec.m):
        u, v = pair()
        pi_u = permutation(width)
        pi_v = permutation(width)
        if planted is not None:
            hit = pi_u.image[planted[u] - 1]
            target = pi_v.image[planted[v] - 1]
            if not t_contains(hit, target):
                image = list(pi_u.image)
                spot = image.index(target)
                image[planted[u] - 1], image[spot] = target, hit
                pi_u = Permutation(tuple(image))
        edges.append(T22Edge(u, v, Fraction(1), pi_u, pi_v))
    return TwoToTwoInstance(spec.n, spec.k, tuple(edges)), planted


def ref_serialize(instance):
    """The per-edge serializers: every edge renders its own weight, images
    or sorted relation."""
    if isinstance(instance, GugpInstance):
        lines = ["GUGP v1", f"k {instance.k}", f"n {instance.n}"]
        for e in instance.edges:
            images = " ".join(str(i) for i in e.pi.image)
            lines.append(f"e {e.u} {e.v} {fmt_fraction(e.weight)} {images}")
    elif isinstance(instance, RelationalInstance):
        lines = ["REL v1", f"k1 {instance.k1}", f"k2 {instance.k2}", f"n {instance.n}"]
        lines.append(f"bipartite {1 if instance.bipartite else 0}")
        for v, side in enumerate(instance.sides or ()):
            lines.append(f"s {v} {side}")
        for e in instance.edges:
            pairs = sorted(e.rel.pairs)
            flat = "".join(f" {a} {b}" for a, b in pairs)
            lines.append(f"e {e.u} {e.v} {fmt_fraction(e.weight)} {len(pairs)}{flat}")
    else:
        lines = ["T22 v1", f"k {instance.k}", f"n {instance.n}"]
        for e in instance.edges:
            pu = " ".join(str(i) for i in e.pi_u.image)
            pv = " ".join(str(i) for i in e.pi_v.image)
            lines.append(f"e {e.u} {e.v} {fmt_fraction(e.weight)} pu {pu} pv {pv}")
    return "\n".join(lines) + "\n"


def small_or_past_a_lane_pass(low, high, past):
    """Sizes from [low..high], or from [high..past], where the draws of one
    request straddle one or several ``below_each`` lane passes."""
    return st.one_of(
        st.integers(min_value=low, max_value=high),
        st.integers(min_value=high, max_value=past),
    )


@st.composite
def gen_specs(draw, families=FAMILIES):
    family = draw(st.sampled_from(families))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    if family == "random-gugp":
        flag = draw(st.sampled_from(["none", "nwa", "max_ratio"]))
        bound = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2)]))
        return GenSpec(
            family, seed,
            n=draw(st.integers(min_value=2, max_value=8)),
            m=draw(small_or_past_a_lane_pass(1, 12, 120)),
            k=draw(st.integers(min_value=1, max_value=5)),
            nwa=flag == "nwa",
            max_ratio=bound if flag == "max_ratio" else None,
        )
    if family == "random-tsp":
        return GenSpec(family, seed, n=draw(small_or_past_a_lane_pass(3, 8, 40)))
    if family == "planted-3col":
        n = draw(small_or_past_a_lane_pass(2, 9, 600))
        base, extra = divmod(n, 3)
        sizes = [base + (1 if i < extra else 0) for i in range(3)]
        ceiling = sizes[0] * sizes[1] + sizes[0] * sizes[2] + sizes[1] * sizes[2]
        m = draw(st.integers(min_value=1, max_value=min(ceiling, 40)))
        return GenSpec(family, seed, n=n, m=m)
    return GenSpec(
        family, seed,
        n=draw(small_or_past_a_lane_pass(2, 7, 300)),
        m=draw(small_or_past_a_lane_pass(1, 10, 60)),
        k=draw(st.integers(min_value=2, max_value=4)),
        satisfiable=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(gen_specs())
def test_generate_matches_the_per_edge_reference(spec):
    instance, planted = ref_generate(spec)
    result = generate(spec)
    assert result.instance == instance
    assert result.planted == planted
    assert serialize(result.instance) == serialize(instance)
    if not isinstance(instance, TspInstance):
        assert serialize(result.instance) == ref_serialize(instance)


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("random-gugp", seed=3, n=300, m=1500, k=5, nwa=True),
        GenSpec("random-gugp", seed=4, n=20, m=40, k=2, max_ratio=Fraction(1, 4)),
        GenSpec("random-t22", seed=5, n=30, m=58, k=3, satisfiable=True),
        GenSpec("random-t22", seed=6, n=400, m=1100, k=2, satisfiable=True),
    ],
    ids=lambda spec: spec.family,
)
def test_generate_matches_the_per_edge_reference_seeded(spec):
    instance, planted = ref_generate(spec)
    result = generate(spec)
    assert (serialize(result.instance), result.planted) == (ref_serialize(instance), planted)


def test_a_ratio_redraw_continues_the_stream_as_the_per_edge_reference():
    spec = GenSpec("random-gugp", seed=9173, n=40, m=300, k=3, max_ratio=Fraction(1, 4))
    first, _ = ref_generate(dataclasses.replace(spec, max_ratio=None))
    assert ref_metrics(first).ratio > spec.max_ratio  # so the spec redraws
    instance, _ = ref_generate(spec)
    assert serialize(generate(spec).instance) == ref_serialize(instance)


@st.composite
def mixed_sharing_gugp(draw):
    """Edges drawn from a small pool of weights and permutations, each either
    the pool's own object or a fresh equal copy."""
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(rationals(), min_size=1, max_size=3))
    images = draw(st.lists(st.permutations(tuple(range(1, k + 1))), min_size=1, max_size=3))
    perms = [Permutation(tuple(image)) for image in images]
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = (u + draw(st.integers(min_value=1, max_value=n - 1))) % n
        w = draw(st.sampled_from(weights))
        pi = draw(st.sampled_from(perms))
        if draw(st.booleans()):
            w = Fraction(w.numerator, w.denominator)
        if draw(st.booleans()):
            pi = Permutation(pi.image)
        edges.append(GugpEdge(u, v, w, pi))
    return GugpInstance(n, k, tuple(edges))


@settings(max_examples=80, deadline=None)
@given(st.one_of(mixed_sharing_gugp(), gugp_instances(max_k=5, max_m=10)))
def test_serialize_gugp_matches_the_per_edge_reference(inst):
    text = serialize(inst)
    assert text == ref_serialize(inst)
    # parsing shares every distinct part; the text must not change
    assert serialize(parse(text)) == text


@settings(max_examples=80, deadline=None)
@given(relational_instances(), st.data())
def test_serialize_rel_matches_the_per_edge_reference(inst, data):
    shared = inst.edges[0].rel
    # some edges take the first edge's relation object, the others keep an
    # equal copy or their own relation
    edges = tuple(
        RelEdge(e.u, e.v, e.weight, shared if data.draw(st.booleans()) else e.rel)
        for e in inst.edges
    )
    for case in (inst, RelationalInstance(inst.n, inst.k1, inst.k2, edges, inst.sides)):
        text = serialize(case)
        assert text == ref_serialize(case)
        assert serialize(parse(text)) == text


def test_serialize_rel_on_bipartite_and_repeated_games():
    sides = ("V", "V", "W", "W", "W")
    full = frozenset((a, b) for a in (1, 2, 3) for b in (1, 2))
    edges = [
        RelEdge(0, 2, Fraction(1, 2), Relation(3, 2, full)),
        RelEdge(0, 3, Fraction(2, 4), Relation(3, 2, full)),
        RelEdge(1, 4, Fraction(3), Relation(3, 2, frozenset())),
        RelEdge(1, 2, Fraction(3), Relation(3, 2, frozenset({(3, 1)}))),
    ]
    bipartite = RelationalInstance(5, 3, 2, tuple(edges), sides)
    repeated = repeat_max3cut(4, ((0, 1), (1, 2), (2, 3), (3, 0)), 2).to_relational()
    for inst in (bipartite, repeated):
        assert serialize(inst) == ref_serialize(inst)
    assert "e 1 4 3/1 0\n" in serialize(bipartite)


@settings(max_examples=60, deadline=None)
@given(gen_specs(families=("random-t22",)), st.booleans())
def test_serialize_t22_matches_the_per_edge_reference(spec, copied):
    inst = generate(spec).instance
    if copied:
        # equal parts as distinct objects
        inst = TwoToTwoInstance(inst.n, inst.k, tuple(
            T22Edge(e.u, e.v, Fraction(1), Permutation(e.pi_u.image), Permutation(e.pi_v.image))
            for e in inst.edges
        ))
    assert serialize(inst) == ref_serialize(inst)


@pytest.mark.parametrize("fold", [1, 2])
def test_serialize_gadgets_matches_the_per_edge_reference(fold):
    gadget, _ = pwt1_gadget(repeat_max3cut(4, ((0, 1), (1, 2), (2, 3), (0, 2)), fold))
    t22 = generate(GenSpec("random-t22", seed=9, n=6, m=10, k=3, satisfiable=True))
    half, _ = two2two_to_pwt_half(t22.instance)
    for inst in (gadget, half):
        assert serialize(inst) == ref_serialize(inst)


def counted(name):
    """A patch of ``fileformat.<name>`` that records each argument it is
    called with, and the list it records them in."""
    calls, real = [], getattr(fileformat, name)

    def recording(part):
        calls.append(part)
        return real(part)

    return mock.patch.object(fileformat, name, recording), calls


def mixed_sharing_rel():
    """A REL game whose edges share relation and weight objects, hold equal
    copies of them, or own theirs."""
    full = frozenset((a, b) for a in (1, 2) for b in (1, 2))
    shared, copy = Relation(2, 2, full), Relation(2, 2, full)
    own = Relation(2, 2, frozenset({(2, 1)}))
    half, three = Fraction(1, 2), Fraction(3)
    edges = [
        RelEdge(0, 1, half, shared),
        RelEdge(1, 2, half, shared),
        RelEdge(2, 3, Fraction(2, 4), copy),
        RelEdge(3, 0, three, own),
        RelEdge(0, 2, three, shared),
        RelEdge(1, 3, Fraction(3), Relation(2, 2, frozenset())),
    ]
    return RelationalInstance(4, 2, 2, tuple(edges))


def mixed_sharing_gugp_game():
    """The same mix for a GUGP game's weights and permutations."""
    pi, copy = perm(2, 1, 3), perm(2, 1, 3)
    half = Fraction(-1, 2)
    edges = [
        GugpEdge(0, 1, half, pi),
        GugpEdge(1, 2, half, copy),
        GugpEdge(2, 0, Fraction(-2, 4), pi),
        GugpEdge(0, 2, Fraction(3), perm(3, 2, 1)),
        GugpEdge(1, 0, Fraction(3), pi),
    ]
    return GugpInstance(3, 3, tuple(edges))


def test_serializers_render_each_distinct_object_once():
    repeated = repeat_max3cut(4, ((0, 1), (1, 2), (2, 3), (0, 2)), 2)
    gadget, _ = pwt1_gadget(repeated)
    cases = (
        repeated.to_relational(),
        mixed_sharing_rel(),
        gadget,
        mixed_sharing_gugp_game(),
    )
    for inst in cases:
        weights, weight_calls = counted("_file_fraction")
        relations, relation_calls = counted("_relation_fields")
        with weights, relations:
            text = serialize(inst)
        assert text == ref_serialize(inst)
        distinct_weights = {id(e.weight): e.weight for e in inst.edges}
        assert list(map(id, weight_calls)) == list(distinct_weights)
        relational = isinstance(inst, RelationalInstance)
        rels = [id(e.rel) for e in inst.edges] if relational else []
        assert list(map(id, relation_calls)) == list(dict.fromkeys(rels))
    # the mixed games hold equal copies, so distinct objects outnumber values
    assert len({id(e.rel) for e in cases[1].edges}) == 4
    assert len({e.rel for e in cases[1].edges}) == 3
    assert len({id(e.weight) for e in cases[3].edges}) == 4


# ---------------------------------------------------------------------------
# edge constructors and weight scaling


def ref_check_edge(edge):
    """The shared edge rule as a ``__post_init__`` step on a plain frozen
    dataclass: convert the weight, then the ids, then the self-loop."""
    if not isinstance(edge.weight, Fraction):
        object.__setattr__(edge, "weight", Fraction(edge.weight))
    if edge.u < 0 or edge.v < 0:
        raise ValidationError("vertex ids must be non-negative")
    if edge.u == edge.v:
        raise ValidationError(f"self-loop at vertex {edge.u}")


def ref_gugp_rule(edge):
    if edge.weight == 0:
        raise ValidationError(f"zero-weight edge ({edge.u},{edge.v})")


def ref_rel_rule(edge):
    if edge.weight <= 0:
        raise ValidationError(f"relational edge ({edge.u},{edge.v}) needs positive weight")


def ref_t22_rule(edge):
    if edge.weight <= 0:
        raise ValidationError("two-to-two edges need positive weight")
    if edge.pi_u.size != edge.pi_v.size:
        raise ValidationError("endpoint permutations must have equal size")


def ref_edge_type(cls, rule):
    """A frozen, unslotted dataclass with ``cls``'s name and fields whose
    ``__post_init__`` runs the shared rule, then ``rule``."""

    def post_init(self):
        ref_check_edge(self)
        rule(self)

    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True,
        namespace={"__post_init__": post_init},
    )


REF_EDGE_TYPES = {
    GugpEdge: ref_edge_type(GugpEdge, ref_gugp_rule),
    RelEdge: ref_edge_type(RelEdge, ref_rel_rule),
    T22Edge: ref_edge_type(T22Edge, ref_t22_rule),
}


def built(cls, args):
    """The edge, or the error's class and message."""
    try:
        return cls(*args)
    except ValidationError as error:
        return type(error), str(error)


small_weights = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(
        Fraction,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=4),
    ),
)


@st.composite
def edge_arguments(draw):
    cls = draw(st.sampled_from(list(REF_EDGE_TYPES)))
    ids = st.integers(min_value=-2, max_value=4)
    head = (draw(ids), draw(ids), draw(small_weights))
    if cls is GugpEdge:
        return cls, head + (draw(permutations(max_k=3)),)
    if cls is RelEdge:
        pairs = draw(st.frozensets(st.tuples(*[st.integers(1, 2)] * 2), max_size=4))
        return cls, head + (Relation(2, 2, pairs),)
    # sizes 2 and 4, so about half the pairs differ in size
    pi_u, pi_v = (draw(permutations(k=draw(st.sampled_from([2, 4])))) for _ in "uv")
    return cls, head + (pi_u, pi_v)


@settings(max_examples=400, deadline=None)
@given(edge_arguments())
def test_edge_constructors_match_the_post_init_reference(cls_and_args):
    cls, args = cls_and_args
    found, expected = built(cls, args), built(REF_EDGE_TYPES[cls], args)
    if isinstance(expected, tuple):
        assert found == expected
        return
    assert type(found) is cls
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(found, name) for name in names]
    assert values == [getattr(expected, name) for name in names]
    assert [type(x) for x in values] == [type(getattr(expected, n)) for n in names]
    assert found == cls(*values) and found == cls(*args)
    assert hash(found) == hash(expected) and repr(found) == repr(expected)


def ref_scaled_weights(weights):
    """Element by element: the lcm of the denominators, then each weight
    times it as an exact ``Fraction``, which must be an integer."""
    scale = 1
    for w in weights:
        scale = math.lcm(scale, Fraction(w).denominator)
    products = [Fraction(w) * scale for w in weights]
    assert all(p.denominator == 1 for p in products)
    return scale, tuple(p.numerator for p in products)


@st.composite
def shared_weight_lists(draw):
    """Weight lists that repeat some objects, hold equal but distinct
    ``Fraction`` objects, and mix in ``int`` values."""
    pool = draw(st.lists(small_weights.filter(bool), min_size=1, max_size=5))
    # Fraction(w) of a Fraction is a new object equal to it
    pool += [Fraction(w) for w in pool[: draw(st.integers(0, len(pool)))]]
    return draw(st.lists(st.sampled_from(pool), max_size=12))


@given(shared_weight_lists())
@example([])
@example([Fraction(1, 6), Fraction(1, 6), 2, Fraction(-3, 4), Fraction(1, 6)])
def test_scaled_weights_matches_the_per_element_reference(weights):
    scale, ints = scaled_weights(weights)
    assert (scale, ints) == ref_scaled_weights(weights)
    assert type(ints) is tuple and all(type(x) is int for x in ints)


# ---------------------------------------------------------------------------
# parsing


def ref_parse(text):
    """The whole-line parser for GUGP, REL, T22 and TSP files: every line is
    split into all its tokens, each token converted on its own, and each
    constraint cached on its token tuple."""
    lines = ((number, raw.split()) for number, raw in enumerate(text.splitlines(), start=1))
    records = (
        (number, fields) for number, fields in lines
        if fields and not fields[0].startswith("#")
    )

    def record():
        found = next(records, None)
        if found is None:
            raise ParseError("unexpected end of file")
        return found

    def integer(token, line):
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"expected integer, got {token!r}", line) from None

    def keyword(name):
        line, fields = record()
        if len(fields) != 2 or fields[0] != name:
            raise ParseError(f"expected '{name} <int>'", line)
        return integer(fields[1], line)

    def cached(cache, key, build):
        if key not in cache:
            cache[key] = build()
        return cache[key]

    weights, constraints = {}, {}

    def head(fields, line):
        u, v = integer(fields[1], line), integer(fields[2], line)
        return u, v, cached(weights, fields[3], lambda: parse_fraction(fields[3], line))

    def permutation(tokens, line):
        def build():
            return Permutation(tuple(integer(t, line) for t in tokens))

        return cached(constraints, tokens, build)

    def relation(tokens, line, k1, k2):
        m = integer(tokens[0], line)
        if len(tokens) != 1 + 2 * m:
            raise ParseError(f"relation of {m} pairs needs {2 * m} label fields", line)
        pairs = set()
        for i in range(1, len(tokens), 2):
            pair = (integer(tokens[i], line), integer(tokens[i + 1], line))
            if pair in pairs:
                raise ParseError(f"duplicate relation pair ({pair[0]},{pair[1]})", line)
            pairs.add(pair)
        return Relation(k1, k2, frozenset(pairs))

    _, header = record()
    if header[0] == "GUGP":
        k, n = keyword("k"), keyword("n")
        edges = []
        for line, fields in records:
            if k < 1 or fields[0] != "e" or len(fields) != 4 + k:
                raise ParseError(f"expected 'e <u> <v> <num>/<den> <{k} images>'", line)
            u, v, weight = head(fields, line)
            edges.append(GugpEdge(u, v, weight, permutation(tuple(fields[4:]), line)))
        return GugpInstance(n, k, edges)
    if header[0] == "T22":
        k, n = keyword("k"), keyword("n")
        width = 2 * k
        edges = []
        for line, fields in records:
            if (
                k < 1 or fields[0] != "e" or len(fields) != 6 + 2 * width
                or fields[4] != "pu" or fields[5 + width] != "pv"
            ):
                raise ParseError(
                    f"expected 'e <u> <v> <num>/<den> pu <{width} images> pv <{width} images>'",
                    line,
                )
            u, v, weight = head(fields, line)
            pu = permutation(tuple(fields[5 : 5 + width]), line)
            pv = permutation(tuple(fields[6 + width :]), line)
            edges.append(T22Edge(u, v, weight, pu, pv))
        return TwoToTwoInstance(n, k, edges)
    if header[0] == "TSP":
        n = keyword("n")
        pairs = []
        for line, fields in records:
            if fields[0] != "w" or len(fields) != 4:
                raise ParseError("expected 'w <u> <v> <num>/<den>'", line)
            u, v, weight = head(fields, line)
            if u >= v:
                raise ParseError("pair weights require u < v", line)
            pairs.append((u, v, weight))
        return TspInstance(n, tuple(pairs))
    k1, k2, n = keyword("k1"), keyword("k2"), keyword("n")
    line, fields = record()
    if len(fields) != 2 or fields[0] != "bipartite" or fields[1] not in ("0", "1"):
        raise ParseError("expected 'bipartite <0|1>'", line)
    bipartite = fields[1] == "1"
    sides, edges = {}, []
    for line, fields in records:
        if fields[0] == "s":
            if len(fields) != 3 or fields[2] not in ("V", "W"):
                raise ParseError("expected 's <v> <V|W>'", line)
            if not bipartite:
                raise ParseError("side line in a non-bipartite file", line)
            v = integer(fields[1], line)
            if v in sides:
                raise ParseError(f"duplicate side line for vertex {v}", line)
            sides[v] = fields[2]
        elif fields[0] == "e":
            if len(fields) < 5:
                raise ParseError("expected 'e <u> <v> <num>/<den> <m> <a1> <b1> ...'", line)
            u, v, weight = head(fields, line)
            tokens = tuple(fields[4:])
            rel = cached(constraints, tokens, lambda: relation(tokens, line, k1, k2))
            edges.append(RelEdge(u, v, weight, rel))
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line)
    side_tuple = None
    if bipartite:
        if len(sides) != n or sorted(sides) != list(range(n)):
            raise ParseError("bipartite file must assign a side to every vertex")
        side_tuple = tuple(sides[v] for v in range(n))
    return RelationalInstance(n, k1, k2, edges, side_tuple)


def outcome(parser, text):
    """The parsed object, or the error's class, message and line number."""
    try:
        return parser(text)
    except (ParseError, ValidationError, DegenerateInstanceError) as error:
        return type(error), str(error), getattr(error, "line", None)


def per_line_parse(text):
    """``parse`` with the bulk GUGP route refusing every file."""
    with mock.patch.object(fileformat, "_bulk_gugp", lambda _text: None):
        return parse(text)


def sharing(instance):
    """The partitions of the edge indices by the ``id`` of each edge's
    weight and of its permutation."""

    def blocks(objects):
        groups = {}
        for i, obj in enumerate(objects):
            groups.setdefault(id(obj), []).append(i)
        return sorted(groups.values())

    return blocks([e.weight for e in instance.edges]), blocks([e.pi for e in instance.edges])


# tokens that reach the deeper checks when swapped into a line
_JUNK = st.sampled_from(
    ["x", "0", "1", "2", "3", "-1", "1/1", "1/0"]
    + ["e", "s", "w", "pu", "pv", "V", "W", "#"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", " \t", "\xa0"])


@st.composite
def noisy_texts(draw):
    """A canonical GUGP, REL, T22 or TSP file rewritten with runs of spaces
    and tabs between fields, leading and trailing whitespace, and comment and
    blank lines; some rewrites also replace, drop or insert one token of a
    line after the header."""
    kind = draw(st.sampled_from(["gugp", "rel", "t22", "tsp"]))
    if kind == "gugp":
        inst = draw(gugp_instances(max_k=5, max_m=10))
    elif kind == "rel":
        inst = draw(relational_instances())
    elif kind == "tsp":
        inst = draw(st.builds(
            lambda seed, n: generate(GenSpec("random-tsp", seed, n=n)).instance,
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=3, max_value=5),
        ))
    else:
        inst = draw(st.builds(
            lambda seed, k, m: generate(GenSpec("random-t22", seed, n=4, m=m, k=k)).instance,
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=2, max_value=3),
            st.integers(min_value=1, max_value=6),
        ))
    lines = serialize(inst).splitlines()
    if draw(st.booleans()):
        # mostly an edge line, where the constraint string is cached
        edge_lines = [i for i, raw in enumerate(lines) if raw[:2] in ("e ", "w ")]
        if draw(st.booleans()):
            i = draw(st.sampled_from(edge_lines))
        else:
            i = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        tokens = lines[i].split()
        spot = draw(st.integers(min_value=0, max_value=len(tokens)))
        action = draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert" or spot == len(tokens):
            tokens.insert(spot, draw(_JUNK))
        elif action == "drop":
            del tokens[spot]
        else:
            tokens[spot] = draw(_JUNK)
        lines[i] = " ".join(tokens)
    out = []
    for raw in lines:
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "# note", "\t# e 0 1 x"])))
        fields = raw.split()
        text = "".join(f + draw(_SPACES) for f in fields[:-1]) + (fields[-1] if fields else "")
        lead = draw(st.sampled_from(["", " ", "\t"]))
        out.append(lead + text + draw(st.sampled_from(["", " ", " \t"])))
    return "\n".join(out) + "\n"


@settings(max_examples=300, deadline=None)
@given(noisy_texts())
# serializer output, which the bulk route parses, and a near miss
@example("GUGP v1\nk 2\nn 3\ne 0 1 1/2 2 1\ne 1 2 1/2 2 1\ne 2 0 -1/3 1 2\n")
@example("GUGP v1\nk 2\nn 3\ne 0 1 1/2 2 1\ne 1 2 1/2  2 1\ne 2 0 1/2 2 1\n")
def test_parse_matches_the_whole_line_reference(text):
    found = outcome(parse, text)
    assert found == outcome(ref_parse, text)
    if fileformat._bulk_gugp(text) is not None:
        assert sharing(found) == sharing(per_line_parse(text))


@pytest.mark.parametrize(
    "text",
    [
        # a short line after a line whose images were split
        "GUGP v1\nk 2\nn 3\ne 0 1 1/1 1 2\ne 1 2 1/1\n",
        # a repeated image string with a bad weight, then a new bad one
        "GUGP v1\nk 2\nn 3\ne 0 1 1/1 2 1\ne 1 2 x 2 1\n",
        "GUGP v1\nk 2\nn 3\ne 0 1 1/1 2 1\ne 1 2 1/1 2 x\n",
        # a bad vertex before a bad image, and a count error before both
        "GUGP v1\nk 2\nn 3\ne x 1 1/1 1 y\n",
        "GUGP v1\nk 2\nn 3\ne x 1 1/1 1 y 3\n",
        # a duplicate pair before a later non-integer label
        "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 3 1 1 1 1 x 2\n",
        "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 2 1 x 1 1\n",
        # T22 markers and counts, first seen and repeated
        "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 4 pv 4 3 2 1\ne 1 2 1/1 pu 1 2 3 4 pv 4 3 2\n",
        "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 4 pq 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 4 pv 4 3 2 1\ne x 2 1/1 pu 1 2 3 4 pv 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 x pv 4 3 2 y\n",
        # the head's tokens in order, then the edge's own checks in order,
        # on a line whose weight token is new and on one whose token is cached
        "GUGP v1\nk 2\nn 3\ne 0 x 1/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne 0 1 1/1 2 1\ne 1 x 1/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne x y 1/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne -1 1 0/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne -1 -1 0/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne 0 1 -1/1 2 1\ne 1 -1 0/1 1 2\n",
        "GUGP v1\nk 2\nn 3\ne 1 1 0/1 2 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne 0 x 1/1 1 1 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne 0 1 1/1 1 1 1\ne 1 x 1/1 1 1 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne x y 1/1 1 1 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne -1 1 0/1 1 1 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne 0 1 1/1 1 1 1\ne 2 2 1/1 1 1 1\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne 1 1 0/1 1 1 1\n",
        "T22 v1\nk 2\nn 3\ne 0 x 1/1 pu 1 2 3 4 pv 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 4 pv 4 3 2 1\ne 1 x 1/1 pu 1 2 3 4 pv 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne x y 1/1 pu 1 2 3 4 pv 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne -1 1 0/1 pu 1 2 3 4 pv 4 3 2 1\n",
        "T22 v1\nk 2\nn 3\ne 1 1 0/1 pu 1 2 3 4 pv 4 3 2 1\n",
        # vertex tokens that int() reads but that are not canonical
        "GUGP v1\nk 2\nn 3\ne +1 0_1 1/1 2 1\n",
        "GUGP v1\nk 2\nn 3\ne +0 0_2 1/1 2 1\ne 0 1 1/1 2 x\n",
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\ne +2 0_2 1/1 1 1 1\n",
        "T22 v1\nk 2\nn 3\ne 0_1 +1 1/1 pu 1 2 3 4 pv 4 3 2 1\n",
        # TSP heads: a bad u, a bad v on a new and on a cached weight token,
        # a bad weight, vertex tokens that int() reads, and u >= v
        "TSP v1\nn 3\nw x 1 1/1\n",
        "TSP v1\nn 3\nw 0 y 1/1\n",
        "TSP v1\nn 3\nw 0 1 1/1\nw 0 y 1/1\n",
        "TSP v1\nn 3\nw 0 1 1/1\nw x y 2/1\n",
        "TSP v1\nn 3\nw 0 1 1/1\nw 0 2 1/0\n",
        "TSP v1\nn 3\nw 0 1 1/1\nw +1 0_1 1/1\n",
        "TSP v1\nn 3\nw 0_1 +0 2/1\n",
        "TSP v1\nn 3\nw 0 1 1/1\nw 2 1 1/1\n",
    ],
)
def test_parse_errors_match_the_whole_line_reference(text):
    found = outcome(parse, text)
    assert isinstance(found, tuple) and found == outcome(ref_parse, text)


# ---------------------------------------------------------------------------
# the bulk GUGP route


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixed_sharing_gugp(), gugp_instances(max_k=5, max_m=10)))
def test_serializer_form_gugp_takes_the_bulk_route(inst):
    text = serialize(inst)
    calls = collections.Counter()
    bulk, per_line = fileformat._bulk_gugp, fileformat._HEADERS["GUGP"]

    def counted_bulk(text):
        found = bulk(text)
        calls["bulk" if found is not None else "refused"] += 1
        return found

    def counted_per_line(records):
        calls["per-line"] += 1
        return per_line(records)

    with mock.patch.object(fileformat, "_bulk_gugp", counted_bulk), mock.patch.dict(
        fileformat._HEADERS, GUGP=counted_per_line
    ):
        parsed = parse(text)
    # a header-only file is the one serializer output the bulk route refuses
    assert calls == ({"bulk": 1} if inst.edges else {"refused": 1, "per-line": 1})
    reference = per_line_parse(text)
    for other in (ref_parse(text), reference, inst):
        assert parsed == other and repr(parsed) == repr(other) and hash(parsed) == hash(other)
    assert sharing(parsed) == sharing(reference)
    assert serialize(parsed) == text
    copied = pickle.loads(pickle.dumps(parsed))
    assert copied == parsed and repr(copied) == repr(parsed)


_BASE = "GUGP v1\nk 2\nn 3\ne 0 1 1/2 2 1\ne 1 2 -1/3 1 2\n"


@pytest.mark.parametrize(
    "text",
    [
        # layout: comments, blank lines, tabs, runs of spaces, line breaks
        "# note\n" + _BASE,
        _BASE.replace("e 1 2", "# e 1 2"),
        _BASE.replace("\ne 1", "\n\ne 1"),
        _BASE + "\n",
        _BASE.replace("e 0 1 ", "e\t0 1 "),
        _BASE.replace("1/2 2 1", "1/2\t2 1"),
        _BASE.replace("e 0 1 ", "e 0  1 "),
        _BASE.replace("e 0 1 ", " e 0 1 "),
        _BASE.replace("2 1\n", "2 1 \n"),
        _BASE.replace("\n", "\r\n"),
        _BASE.replace("2 1\ne", "2 1\re"),
        _BASE.replace("e 1 2 ", "e 1\xa02 "),
        _BASE.replace("e 1 2 ", "e 1 2\x0b"),
        _BASE[:-1],
        # short and long lines, a wrong tag, tokens shifted across lines
        _BASE.replace("1/2 2 1", "1/2 2"),
        _BASE.replace("1/2 2 1", "1/2 2 1 3"),
        _BASE.replace("e 0 1", "f 0 1"),
        _BASE.replace("1/2 2 1\ne 1", "1/2 2 1 e\n1"),
        _BASE.replace("1/2 2 1\ne 1 2", "1/2 2 1 e 1\n2"),
        # tokens int or parse_fraction refuse, or that are not canonical
        _BASE.replace("e 0 1", "e x 1"),
        _BASE.replace("e 0 1", "e 0 +1"),
        _BASE.replace("e 0 1", "e 0_0 1"),
        _BASE.replace("1/2 2 1", "x 2 1"),
        _BASE.replace("1/2 2 1", "1/0 2 1"),
        _BASE.replace("1/2 2 1", "1/2 2 x"),
        _BASE.replace("1/2 2 1", "1/2 1 1"),
        _BASE.replace("1/2 2 1", "1/2 2 e"),
        # headers
        _BASE.replace("k 2", "k 0"),
        _BASE.replace("k 2", "k 02"),
        _BASE.replace("k 2", "k  2"),
        _BASE.replace("n 3", "n 0"),
        _BASE.replace("n 3", "n3"),
        "GUGP v1\nk 2\nn 3\n",
        "GUGP v1\nk 2\n",
        # the edge and instance rules
        _BASE.replace("1/2 2 1", "0/1 2 1"),
        _BASE.replace("e 1 2", "e 1 1"),
        _BASE.replace("e 1 2", "e -1 2"),
        _BASE.replace("e 1 2", "e 1 3"),
        _BASE.replace("e 0 1", "e 5 1"),
    ],
)
def test_bulk_route_refuses_and_the_per_line_route_decides(text):
    assert fileformat._bulk_gugp(text) is None
    assert outcome(parse, text) == outcome(ref_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        # tokens the serializer never writes but int and parse_fraction read
        _BASE.replace("1/2 2 1", "2/4 2 1"),
        _BASE.replace("1/2 2 1", "1/2 02 1"),
        _BASE.replace("e 0 1", "e 00 01"),
        _BASE.replace("-1/3 1 2", "-02/6 1 2\ne 2 0 1/2 2 1"),
    ],
)
def test_bulk_route_reads_other_tokens_as_the_per_line_route(text):
    found = fileformat._bulk_gugp(text)
    reference = per_line_parse(text)
    assert found is not None and found == reference == ref_parse(text)
    assert sharing(found) == sharing(reference)


_BASE3 = "GUGP v1\nk 3\nn 3\ne 0 1 1/2 2 3 1\ne 1 2 -1/3 1 2 3\n"


@pytest.mark.parametrize(
    "text",
    [
        # too few and too many labels, on the first and on a later image
        _BASE.replace("1/2 2 1", "1/2 2"),
        _BASE.replace("-1/3 1 2", "-1/3 1 2 3"),
        _BASE3.replace("2 3 1", "2 3"),
        _BASE3.replace("1 2 3\n", "1 2 3 1\n"),
        # a double space: one space too many, and the count right with an
        # empty label
        _BASE.replace("1/2 2 1", "1/2 2  1"),
        _BASE3.replace("1/2 2 3 1", "1/2 2  1"),
        _BASE3.replace("-1/3 1 2 3", "-1/3  2 3"),
        _BASE3.replace("-1/3 1 2 3", "-1/3 1 2 "),
        # a leading zero, read as the per-line route reads it
        _BASE.replace("1/2 2 1", "1/2 2 01"),
        _BASE3.replace("-1/3 1 2 3", "-1/3 01 002 3"),
        # labels -1 and k + 1, on the first and on a later image
        _BASE.replace("1/2 2 1", "1/2 2 -1"),
        _BASE3.replace("-1/3 1 2 3", "-1/3 1 -1 3"),
        _BASE.replace("1/2 2 1", "1/2 3 1"),
        _BASE3.replace("-1/3 1 2 3", "-1/3 1 2 4"),
        _BASE3.replace("-1/3 1 2 3", "-1/3 1 2 2"),
    ],
)
def test_bulk_route_reads_image_fields_as_the_per_line_route(text):
    expected = outcome(per_line_parse, text)
    assert outcome(parse, text) == expected == outcome(ref_parse, text)
    found = fileformat._bulk_gugp(text)
    if found is not None:
        assert found == expected and sharing(found) == sharing(expected)


def test_bulk_route_converts_image_strings_across_passes():
    # a pwt-half gadget: nearly every edge has its own image string, so the
    # distinct strings fill several conversion passes
    source = generate(GenSpec("random-t22", seed=3, n=30, m=100, k=4)).instance
    text = serialize(two2two_to_pwt_half(source)[0])
    images = {line.split(" ", 4)[4] for line in text.splitlines()[3:]}
    assert len(images) > 2 * fileformat._PASS_LINES
    found = fileformat._bulk_gugp(text)
    reference = per_line_parse(text)
    assert found is not None and found == reference == ref_parse(text)
    assert sharing(found) == sharing(reference)


_BAD_WEIGHTS = [Fraction(0), 0, 2]


@st.composite
def edge_columns(draw):
    """Columns of edge arguments, mostly valid, with now and then a planted
    negative id, self-loop, zero weight or integer weight."""
    size = draw(st.integers(min_value=0, max_value=8))
    weights = [Fraction(1, 2), Fraction(-3), Fraction(2, 7)]
    pis = [Permutation((1, 2)), Permutation((2, 1))]
    us = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=size, max_size=size))
    vs = [u + draw(st.integers(min_value=1, max_value=3)) for u in us]
    ws = [draw(st.sampled_from(weights)) for _ in us]
    ps = [draw(st.sampled_from(pis)) for _ in us]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if size else 0):
        i = draw(st.integers(min_value=0, max_value=size - 1))
        how = draw(st.sampled_from(["u", "v", "loop", "weight"]))
        if how == "u":
            us[i] = -1
        elif how == "v":
            vs[i] = -2
        elif how == "loop":
            vs[i] = us[i]
        else:
            ws[i] = draw(st.sampled_from(_BAD_WEIGHTS))
    return us, vs, ws, ps


def edge_outcome(build, columns):
    try:
        edges = build(*columns)
    except ValidationError as error:
        return type(error), str(error)
    # a Fraction argument is stored as that same object
    stored = [e.weight is w for e, w in zip(edges, columns[2]) if isinstance(w, Fraction)]
    return edges, stored


@settings(max_examples=300, deadline=None)
@given(edge_columns())
def test_bulk_edge_builder_matches_the_constructor_loop(columns):
    def constructor_loop(us, vs, ws, ps):
        return [GugpEdge(*args) for args in zip(us, vs, ws, ps)]

    assert edge_outcome(gugp_edges, columns) == edge_outcome(constructor_loop, columns)


_ODD_LABELS = st.sampled_from(["1", 1.0, None, True, Fraction(2)])


@st.composite
def image_lists(draw):
    """Image tuples, mostly bijections on one [1..k], with now and then an
    empty tuple, a bijection of another length, a repeated label, a label 0
    or k + 1, or an entry that is not an int."""
    k = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=0, max_value=6))
    images = [list(draw(st.permutations(range(1, k + 1)))) for _ in range(size)]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if size else 0):
        image = images[draw(st.integers(min_value=0, max_value=size - 1))]
        spot = draw(st.integers(min_value=0, max_value=k - 1))
        how = draw(st.sampled_from(["empty", "length", "repeat", "0", "k+1", "type"]))
        if how == "empty":
            image.clear()
        elif how == "length":
            image[:] = draw(st.permutations(range(1, k + 2)))
        elif image and how == "repeat":
            image[spot] = image[draw(st.integers(min_value=0, max_value=len(image) - 1))]
        elif image:
            labels = {"0": st.just(0), "k+1": st.just(k + 1), "type": _ODD_LABELS}
            image[spot] = draw(labels[how])
    return [tuple(image) for image in images]


def permutation_outcome(build, images):
    try:
        return [(type(pi), pi.image, pi.rows, repr(pi), hash(pi)) for pi in build(images)]
    except (ValidationError, TypeError) as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(image_lists())
@example([()])
@example([(1,), (1,)])
@example([(2, 1), (1, 2, 3)])
@example([(2, 1), (1, "2")])
@example([(1, 2), (0, 1)])
@example([(3, 1), (1, 2)])
def test_bulk_permutation_builder_matches_the_constructor_loop(images):
    def constructor_loop(images):
        return [Permutation(image) for image in images]

    found = permutation_outcome(bulk_permutations, images)
    assert found == permutation_outcome(constructor_loop, images)


def test_bulk_builders_make_no_permutation_one_at_a_time(monkeypatch):
    # every Permutation built by its constructor runs __post_init__;
    # core.permutations stores the images on fresh objects and runs none
    t22 = generate(GenSpec("random-t22", seed=9, n=6, m=10, k=3)).instance
    spec = GenSpec("random-gugp", seed=5, n=20, m=60, k=3)
    game = generate(spec).instance
    text = serialize(game)
    calls = []
    real = Permutation.__post_init__

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    builds = {
        "random-gugp": lambda: generate(spec),
        "random-gugp k=1": lambda: generate(dataclasses.replace(spec, k=1)),
        "random-t22": lambda: generate(GenSpec("random-t22", seed=9, n=6, m=10, k=3)),
        "planted": lambda: generate(
            GenSpec("random-t22", seed=9, n=6, m=40, k=2, satisfiable=True)
        ),
        "pwt-half": lambda: two2two_to_pwt_half(t22),
        "bulk parse": lambda: parse(text),
    }
    for name, build in builds.items():
        build()
        assert (name, len(calls)) == (name, 0)
    # the same text behind a comment line takes the per-line route, which
    # builds one permutation per distinct image string
    assert parse("# a comment\n" + text) == game
    images = {line.split(" ", 4)[4] for line in text.splitlines()[3:]}
    assert len(calls) == len(images) < len(game.edges)


def test_bulk_builders_make_no_edge_one_at_a_time(monkeypatch):
    # every GugpEdge built by the generated constructor runs __post_init__;
    # gugp_edges stores through the slot setters and runs none
    base = repeat_max3cut(4, ((0, 1), (1, 2), (2, 3), (0, 2)), 2)
    t22 = generate(GenSpec("random-t22", seed=9, n=6, m=10, k=3)).instance
    tsp = generate(GenSpec("random-tsp", seed=3, n=6)).instance
    spec = GenSpec("random-gugp", seed=5, n=20, m=60, k=3)
    game = generate(spec).instance
    text = serialize(game)
    calls = []
    real = GugpEdge.__post_init__

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(GugpEdge, "__post_init__", counted)
    builds = {
        "random-gugp": lambda: generate(spec),
        "max-ratio": lambda: generate(dataclasses.replace(spec, max_ratio=Fraction(1, 2))),
        "pwt1": lambda: pwt1_gadget(base),
        "pwt-half": lambda: two2two_to_pwt_half(t22),
        "tsp": lambda: reductions.tsp_to_min_nwa(tsp),
        "bulk parse": lambda: parse(text),
    }
    for name, build in builds.items():
        build()
        assert (name, len(calls)) == (name, 0)
    # the same text behind a comment line takes the per-line route
    assert parse("# a comment\n" + text) == game
    assert len(calls) == len(game.edges)


def ref_check_instance(instance):
    """The endpoint rule, checked edge by edge."""
    if instance.n < 1:
        raise ValidationError("instance needs at least one vertex")
    for e in instance.edges:
        if e.u >= instance.n or e.v >= instance.n:
            raise ValidationError(f"edge ({e.u},{e.v}) references vertex >= n={instance.n}")


def ref_gugp_instance(n, k, edges):
    """``GugpInstance``'s checks, edge by edge, with the same messages."""
    instance = types.SimpleNamespace(n=n, edges=tuple(edges))
    ref_check_instance(instance)
    if k < 1:
        raise ValidationError("instance needs at least one label")
    for e in edges:
        if len(e.pi.image) != k:
            raise ValidationError(f"edge ({e.u},{e.v}) permutation size {e.pi.size} != k={k}")
    return GugpInstance(n, k, edges)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=4).flatmap(permutations),
        ),
        max_size=6,
    ),
)
def test_instance_checks_name_the_first_offender_as_the_edge_loops(n, k, triples):
    edges = [GugpEdge(u, u + bump, Fraction(1), pi) for u, bump, pi in triples]

    def checked(build):
        try:
            return build(n, k, edges)
        except ValidationError as error:
            return str(error)

    assert checked(GugpInstance) == checked(ref_gugp_instance)


# ---------------------------------------------------------------------------
# gadget builders: tables made once per fold or per call


def ref_all_coords_differ_relation(fold):
    """Every label pair of [3^fold]^2, kept when its decoded digits differ
    in every coordinate."""
    k = 3**fold
    pairs = frozenset(
        (a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if all(x != y for x, y in zip(decode_label(a, fold), decode_label(b, fold)))
    )
    return Relation(k, k, pairs)


def ref_two2two_relation(pi_u, pi_v):
    """Every label pair of [2k]^2 whose images land in one pair block."""
    k2 = pi_u.size
    pairs = frozenset(
        (i, j)
        for i in range(1, k2 + 1)
        for j in range(1, k2 + 1)
        if t_contains(pi_u.apply(i), pi_v.apply(j))
    )
    return Relation(k2, k2, pairs)


def ref_repeat_edges(n, edges, fold):
    """Every ordered choice of one oriented base edge per coordinate,
    encoded, canonicalized to (min, max) and deduplicated."""
    oriented = [o for u, v in edges for o in ((u, v), (v, u))]
    pair_set = set()
    for combo in itertools.product(oriented, repeat=fold):
        a = encode_vertex_tuple(tuple(c[0] for c in combo), n)
        b = encode_vertex_tuple(tuple(c[1] for c in combo), n)
        pair_set.add((min(a, b), max(a, b)))
    return tuple(sorted(pair_set))


def ref_shift_images(fold):
    """The pwt1 bundle's images in offset order: decode each label, shift
    digit j by offset j - 1 (mod 3), encode."""
    return [
        tuple(
            encode_label_tuple(
                tuple(
                    modplus(d + off - 1, 3)
                    for d, off in zip(decode_label(label, fold), offsets)
                )
            )
            for label in range(1, 3**fold + 1)
        )
        for offsets in itertools.product((1, 2, 3), repeat=fold)
    ]


def ref_pwt1_gadget(repeated):
    """One ``GugpEdge`` per edge and offset, the images decoded per label;
    one permutation and one weight object per offset, shared by every
    bundle."""
    fold = repeated.fold
    w_fixed = Fraction(-(2**fold - 1), 3**fold - 1)
    w_moving = Fraction(3**fold - 2**fold, 3**fold - 1)
    offsets = itertools.product((1, 2, 3), repeat=fold)
    shifts = [
        (Permutation(image), w_fixed if 1 in offs else w_moving)
        for offs, image in zip(offsets, ref_shift_images(fold))
    ]
    edges = tuple(
        GugpEdge(u, v, w, pi) for u, v in repeated.edges for pi, w in shifts
    )
    return GugpInstance(repeated.n, 3**fold, edges)


def ref_pwt_half_gadget(instance):
    """One ``GugpEdge`` per edge and shift, each image composed label by
    label through ``_pair_shift``."""
    k2 = 2 * instance.k
    w_hit = Fraction(2 * instance.k - 2, 2 * instance.k - 1)
    w_miss = Fraction(-1, 2 * instance.k - 1)
    edges = []
    for e in instance.edges:
        inverse = e.pi_v.rows[1]
        for m in range(1, k2 + 1):
            image = tuple(inverse[_pair_shift(a, m, k2)] for a in e.pi_u.image)
            edges.append(
                GugpEdge(e.u, e.v, w_hit if m <= 2 else w_miss, Permutation(image))
            )
    return GugpInstance(instance.n, k2, tuple(edges))


def shared_objects(instance):
    """The partition of edges by the ``id`` of their permutation and of their
    weight, each as first-occurrence indices."""
    firsts = ({}, {})
    return tuple(
        tuple(
            first.setdefault(id(getattr(e, name)), i)
            for i, e in enumerate(instance.edges)
        )
        for first, name in zip(firsts, ("pi", "weight"))
    )


@pytest.mark.parametrize("fold", [1, 2, 3, 4])
def test_all_coords_differ_relation_matches_the_decoding_filter(fold):
    relation = all_coords_differ_relation(fold)
    assert relation == ref_all_coords_differ_relation(fold)
    assert len(relation.pairs) == 6**fold


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_all_coords_differ_relation_is_one_object_per_fold(fold):
    assert all_coords_differ_relation(fold) is all_coords_differ_relation(fold)
    base = repeat_max3cut(3, ((0, 1), (1, 2), (0, 2)), fold)
    # the repeated game, its recovery and the verifier's lookup share it
    rel = base.to_relational()
    assert {id(e.rel) for e in rel.edges} == {id(all_coords_differ_relation(fold))}
    assert coordinate_collision_predicate(fold)(0) is all_coords_differ_relation(fold)
    assert len({id(e.weight) for e in rel.edges}) == 1


@st.composite
def permutation_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    return draw(permutations(k=2 * k)), draw(permutations(k=2 * k))


@settings(max_examples=200, deadline=None)
@given(permutation_pairs())
def test_two2two_relation_matches_the_block_filter(pair):
    pi_u, pi_v = pair
    relation = two2two_relation(pi_u, pi_v)
    assert relation == ref_two2two_relation(pi_u, pi_v)
    assert len(relation.pairs) == 2 * pi_u.size


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k2", [2, 4, 6, 8, 10, 12])
def test_two2two_relation_matches_the_block_filter_seeded(seed, k2):
    stream = SplitMix64(seed * 100 + k2)
    images = [list(range(1, k2 + 1)), list(range(1, k2 + 1))]
    for image in images:
        stream.shuffle(image)
    pi_u, pi_v = map(Permutation, map(tuple, images))
    assert two2two_relation(pi_u, pi_v) == ref_two2two_relation(pi_u, pi_v)


def test_unit_relational_shares_one_unit_weight():
    source = generate(GenSpec(family="random-t22", seed=3, n=5, m=6, k=3)).instance
    unit = source.to_unit_relational()
    assert [e.rel for e in unit.edges] == [
        ref_two2two_relation(e.pi_u, e.pi_v) for e in source.edges
    ]
    assert {e.weight for e in unit.edges} == {1}
    assert len({id(e.weight) for e in unit.edges}) == 1


@st.composite
def t22_sources(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=0, max_value=4))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        weight = draw(rationals(signs="positive"))
        pi_u, pi_v = draw(permutations(k=2 * k)), draw(permutations(k=2 * k))
        edges.append(T22Edge(u, v, weight, pi_u, pi_v))
    return TwoToTwoInstance(n, k, tuple(edges))


@settings(max_examples=100, deadline=None)
@given(t22_sources())
def test_pwt_half_gadget_matches_the_per_label_composition(source):
    gadget, bundles = two2two_to_pwt_half(source)
    reference = ref_pwt_half_gadget(source)
    assert gadget == reference and bundles == BundleMap(len(source.edges), 2 * source.k)
    assert shared_objects(gadget)[1] == shared_objects(reference)[1]


@pytest.mark.parametrize("seed", range(1, 5))
@pytest.mark.parametrize("k", [2, 3, 6])
def test_pwt_half_gadget_matches_the_per_label_composition_seeded(seed, k):
    spec = GenSpec(family="random-t22", seed=seed, n=6, m=8, k=k)
    source = generate(spec).instance
    gadget, _ = two2two_to_pwt_half(source)
    assert gadget == ref_pwt_half_gadget(source)
    assert serialize(gadget) == serialize(ref_pwt_half_gadget(source))


def test_pwt_half_gadget_of_no_edges_builds_no_row(monkeypatch):
    # a header's k alone: the rows would hold 4 * 10^24 entries, so a first
    # shift entry fails the test before it can allocate
    def no_row(*_args):
        raise AssertionError("a shift row was built for a source with no edges")

    monkeypatch.setattr(reductions, "_pair_shift", no_row)
    source = TwoToTwoInstance(3, 10**12, ())
    gadget, bundles = two2two_to_pwt_half(source)
    assert gadget == GugpInstance(3, 2 * 10**12, ())
    assert bundles == BundleMap(0, 2 * 10**12)


@pytest.mark.parametrize("fold", [1, 2, 3, 4])
def test_pwt1_shift_images_match_decode_shift_encode(fold):
    repeated = repeat_max3cut(2, ((0, 1),), fold)
    gadget, _ = pwt1_gadget(repeated)
    bundle = gadget.edges[: 3**fold]
    assert [e.pi.image for e in bundle] == ref_shift_images(fold)


@pytest.mark.parametrize("seed", range(1, 4))
@pytest.mark.parametrize("fold", [1, 2, 3])
def test_pwt1_gadget_matches_the_per_label_reference(seed, fold):
    base = generate(GenSpec(family="planted-3col", seed=seed, n=4, m=3)).instance
    repeated = repeat_max3cut(base.n, tuple((e.u, e.v) for e in base.edges), fold)
    gadget, bundles = pwt1_gadget(repeated)
    reference = ref_pwt1_gadget(repeated)
    assert gadget == reference and bundles == BundleMap(len(repeated.edges), 3**fold)
    # every bundle holds the same permutation and weight objects, in order
    assert shared_objects(gadget) == shared_objects(reference)
    assert serialize(gadget) == serialize(reference)


@st.composite
def base_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    fold = draw(st.integers(min_value=1, max_value=3))
    return n, tuple(edges), fold


@settings(max_examples=150, deadline=None)
@given(base_graphs())
def test_repeat_max3cut_matches_the_product_reference(graph):
    # edges may repeat, in either orientation
    n, edges, fold = graph
    repeated = repeat_max3cut(n, edges, fold)
    assert repeated.edges == ref_repeat_edges(n, edges, fold)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("fold", [1, 2, 3])
def test_repeat_max3cut_matches_the_product_reference_seeded(seed, fold):
    base = generate(GenSpec(family="planted-3col", seed=seed, n=5, m=4)).instance
    edges = tuple((e.u, e.v) for e in base.edges)
    repeated = repeat_max3cut(base.n, edges, fold)
    assert repeated.edges == ref_repeat_edges(base.n, edges, fold)


@pytest.mark.parametrize("fold", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_product_coloring_matches_the_definition(n, fold):
    # every coloring of every base size up to 4
    for chi in itertools.product((1, 2, 3), repeat=n):
        expected = tuple(
            encode_label_tuple(tuple(chi[c] for c in decode_vertex(v, n, fold)))
            for v in range(n**fold)
        )
        assert product_coloring(chi, fold) == expected
    if fold == 0:
        assert product_coloring((1,) * n, fold) == (1,)


def ref_repeated_error(instance):
    """The message of the first failing edge, each edge's weight checked
    before its relation, or None when every edge passes."""
    differ = all_coords_differ_relation(label_fold(instance.k1))
    for e in instance.edges:
        if e.weight != 1:
            return "repeated 3-cut edges carry unit weight"
        if e.rel != differ:
            return "every relation must be the all-coordinates-differ relation"
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_repeated_from_relational_matches_the_per_edge_loop(data):
    # the pools hold shared objects, equal copies and failing values
    repeated = repeat_max3cut(3, ((0, 1), (1, 2), (0, 2)), 2)
    good = repeated.to_relational()
    one, differ = good.edges[0].weight, good.edges[0].rel
    weights = [one, Fraction(1), Fraction(2), Fraction(1, 2)]
    near = Relation(9, 9, differ.pairs - {min(differ.pairs)})
    rels = [differ, Relation(9, 9, differ.pairs), near]
    draw = data.draw
    edges = tuple(
        RelEdge(e.u, e.v, draw(st.sampled_from(weights)), draw(st.sampled_from(rels)))
        for e in good.edges
    )
    instance = dataclasses.replace(good, edges=edges)
    message = ref_repeated_error(instance)
    if message is None:
        assert repeated_from_relational(instance) == repeated
    else:
        with pytest.raises(ValidationError) as caught:
            repeated_from_relational(instance)
        assert str(caught.value) == message
