"""The integer routes against plain ``Fraction`` references.

Each reference below is the direct per-edge ``Fraction`` loop for one
weight sum, solver or verifier, or the label-decoding form of one indicator
predicate.  The package's integer and relation-built routes must match it
exactly: the same values, labelings, work counts, notes, and witnesses in
scan order.  The generator and the serializers are held to per-edge copies
the same way: the same instances and the same bytes; the generator and the
GUGP and REL serializers build or render each distinct weight, permutation
and relation once.  The parser, which splits GUGP and REL edge lines only
up to their constraint string, is held to a parser that splits every line
whole: the same objects, or the same error on the same line.  The edge
types, slotted dataclasses that check their arguments in a hand-written
``__init__`` (``GugpEdge``, ``RelEdge``) or in a ``__post_init__``
(``T22Edge``), are held to the same rules run as ``__post_init__`` steps of
plain frozen dataclasses: the same fields, hash and repr, or the same
error.  ``scaled_weights``, which scales each distinct weight object once,
is held to a per-element loop, and ``_pair_shift`` to its three-branch
form.
"""

import dataclasses
import itertools
import math
import re
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
    InstanceMetrics,
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
    ValidationError,
    brute_force,
    brute_force_relational,
    check_bundle_exactly_one,
    check_indicator_weights,
    check_strip_bounds,
    coordinate_collision_predicate,
    decode_label,
    exhaustive_tsp_optimum,
    fmt_fraction,
    generate,
    labeling_value,
    local_search_half,
    metrics,
    modplus,
    pair_block_predicate,
    parse,
    pwt1_gadget,
    relational_value,
    repeat_max3cut,
    satisfied_weight,
    serialize,
    t_contains,
    two2two_to_pwt_half,
    unsatisfied_weight,
)

from gugp_workbench import solvers, verification
from gugp_workbench.core import scaled_weights
from gugp_workbench.fileformat import parse_fraction
from gugp_workbench.reductions import _pair_shift
from gugp_workbench.solvers import BLOCK_LABELINGS, _best_labeling, _prefix_scan
from gugp_workbench.verification import _strip_scan

from conftest import (
    gugp,
    gugp_instances,
    labelings_for,
    perm,
    permutations,
    rationals,
    relational_instances,
)

# ---------------------------------------------------------------------------
# references


def ref_metrics(instance):
    w_plus = Fraction(0)
    w_minus = Fraction(0)
    for e in instance.edges:
        if e.weight > 0:
            w_plus += e.weight
        else:
            w_minus += e.weight
    ratio = None if w_plus == 0 else abs(w_minus) / w_plus
    return InstanceMetrics(w_plus, w_minus, w_plus + w_minus, ratio)


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
    best = best_tour = None
    for rest in itertools.permutations(range(1, tsp.n)):
        tour = (0,) + rest
        w = Fraction(0)
        for i, a in enumerate(tour):
            b = tour[(i + 1) % tsp.n]
            w += tsp.weight_map[min(a, b), max(a, b)]
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
    checks).  A bundle may repeat an earlier bundle's exact ``(pi, weight)``
    objects, on any vertex pair, so runs of identical bundles reach the
    shared-table path."""
    k = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=1, max_value=k + 1))
    count = draw(st.integers(min_value=1, max_value=6))
    edges, contents = [], []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=2))
        v = (u + draw(st.integers(min_value=1, max_value=2))) % 3
        if contents and draw(st.booleans()):
            content = draw(st.sampled_from(contents))
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
    assert relational_value(inst, labeling) == sat / total


def test_relational_sums_on_edgeless_instance():
    inst = RelationalInstance(2, 2, 2, ())
    assert satisfied_weight(inst, (1, 2)) == 0
    with pytest.raises(DegenerateInstanceError):
        relational_value(inst, (1, 2))


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


def misses(relation_of):
    """The per-cell predicate a relation lookup stands for."""
    return lambda bundle, a, b: (a, b) not in relation_of(bundle)


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
        assert (relation_of(i).k1, relation_of(i).k2) == (2 * k, 2 * k)
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
        rel = relation_of(0)
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
    result = brute_force_relational(inst)
    assert (result.labeling, result.visited) == ref_brute_force_relational(inst)


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


def kernel_scores(domains, tables):
    block, leaves = _prefix_scan(domains, tables)
    return [
        (prefix + t, base + score)
        for prefix, base, row in leaves
        for t, score in zip(block, row)
    ]


def ref_strip_scan(domains, tables_all, tables_pos, sigma, w_plus, scale):
    """The strip-bounds joint scan as one plain loop over all labelings."""
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
    assert _best_labeling(domains, tables) == first


@pytest.mark.parametrize(
    "sizes, prefix_len, leaf_count",
    [
        ([3] * 7, 2, 9),  # 3^5 = 243 labelings in the block
        ([2] * 10, 3, 8),  # 2^7 = 128; one more vertex would pass the constant
        ([3] * 5, 0, 1),  # the whole space is the block
        ([4], 0, 1),  # n = 1
        ([2, 300, 2], 2, 600),  # a vertex over the constant stays in the prefix
        ([300], 1, 300),  # an empty block: one score per leaf
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
    block, leaves = _prefix_scan(domains, tables)
    leaves = list(leaves)
    assert len(leaves) == leaf_count
    assert all(len(prefix) == prefix_len for prefix, _, _ in leaves)
    assert len(block) == math.prod(sizes[prefix_len:]) <= BLOCK_LABELINGS
    assert [prefix + t for prefix, _, _ in leaves for t in block] == list(
        itertools.product(*domains)
    )
    assert kernel_scores(domains, tables) == ref_scores(domains, tables)


def eager_kernel_scores(domains, tables):
    """``kernel_scores`` with every leaf collected before any row is read."""
    block, leaves = _prefix_scan(domains, tables)
    leaves = list(leaves)
    return [
        (prefix + t, base + score)
        for prefix, base, row in leaves
        for t, score in zip(block, row)
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
    _, leaves = _prefix_scan(SHARED_ROW_DOMAINS, SHARED_ROW_TABLES)
    leaves = list(leaves)
    assert [len(prefix) for prefix, _, _ in leaves] == [2] * 9
    rows = [row for _, _, row in leaves]
    assert all(rows[i] is rows[i - i % 3] for i in range(9))
    assert rows[0] is not rows[3] is not rows[6]


def test_prefix_scan_without_tables_ties_at_all_ones():
    domains = [range(1, 4)] * 7
    assert _best_labeling(domains, {}) == (1,) * 7
    assert _best_labeling([range(1, 6)], {}) == (1,)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k, n, m", [(3, 7, 14), (2, 10, 18)])
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
    assert _strip_scan(*args) == ref_strip_scan(*args)


def test_strip_scan_walks_only_the_failing_rows():
    # one prefix-block table scores only the labelings with f(0) = 2 and
    # f(6) = 3: a third of the row in each of three leaves
    domains = [range(1, 4)] * 7
    table = [[PAD] * 4] + [[PAD, 0, 0, 0] for _ in range(3)]
    table[2][3] = 5
    args = (domains, {(0, 6): table}, {}, 10, 10, 2)
    cases, witnesses, best_orig, best_stripped = _strip_scan(*args)
    assert (cases, witnesses, best_orig, best_stripped) == ref_strip_scan(*args)
    assert len(witnesses) == 3 * 3**4
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


def walked_strip_scan(monkeypatch, args):
    """``_strip_scan(*args)`` and the number of rows it walked."""
    blocks = []

    def scan(domains, *table_sets):
        block, *leaves = _prefix_scan(domains, *table_sets)
        blocks.append(WalkedBlock(block))
        return (blocks[-1], *leaves)

    monkeypatch.setattr(verification, "_prefix_scan", scan)
    result = _strip_scan(*args)
    return result, blocks[0].walks


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


def test_strip_scan_boundary_row_has_no_witness_and_is_not_walked(monkeypatch):
    args = boundary_args(BOUNDARY_ALL, BOUNDARY_POS)
    (cases, witnesses, best_orig, best_stripped), walks = walked_strip_scan(
        monkeypatch, args
    )
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
    monkeypatch, side, label, entry, bound
):
    entries = {"all": BOUNDARY_ALL, "pos": BOUNDARY_POS}
    entries[side] = [row[:] for row in entries[side]]
    entries[side][label[0] - 1][label[1] - 1] = entry
    args = boundary_args(entries["all"], entries["pos"])
    result, walks = walked_strip_scan(monkeypatch, args)
    assert result == ref_strip_scan(*args)
    assert [(f, rule) for _, f, rule, _ in result[1]] == [(label, bound)]
    assert walks == 1


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
        4,
        4,
        {
            (a, b)
            for a in range(1, 5)
            for b in range(1, 5)
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


def shared_and_perturbed_gadget():
    """A fold-2 pwt1 gadget, whose bundles all share one list of
    ``(pi, weight)`` objects, with middle bundles changed: bundles 3 and 4
    repeat one permutation the same way (both checks fail), bundle 6
    carries a different weight (the indicator fails), bundle 9 an equal
    weight in a distinct ``Fraction`` and bundle 12 equal but distinct
    ``Permutation`` objects (both pass).  Returns the gadget, its bundles and the number of
    tables each check builds when it shares them: the weights do not enter
    the exactly-one check's tables."""
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
    # runs start at bundles 0, 3, 5, 12 and 13, and for the weighted tables
    # also at 6 and 7; bundle 9 stays in the run of bundle 7
    return GugpInstance(gadget.n, gadget.k, tuple(edges)), bundles, (5, 7)


def count_tables(monkeypatch):
    built = []
    real = verification.pair_tables

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(verification, "pair_tables", counting)
    return built


def test_bundle_checks_match_reference_on_shared_and_perturbed_bundles(monkeypatch):
    gadget, bundles, (unweighted_runs, weighted_runs) = shared_and_perturbed_gadget()
    built = count_tables(monkeypatch)
    exactly_one = check_bundle_exactly_one(gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (exactly_one.cases, list(exactly_one.witnesses)) == (cases, witnesses[:50])
    assert {w[0] for w in exactly_one.witnesses} == {3, 4}
    assert len(built) == unweighted_runs
    for fold in (2, 3):
        built.clear()
        relation_of = coordinate_collision_predicate(fold)
        indicator = check_indicator_weights(gadget, bundles, relation_of)
        cases, witnesses = ref_indicator_weights(gadget, bundles, misses(relation_of))
        assert (indicator.cases, list(indicator.witnesses)) == (cases, witnesses[:50])
        assert len(built) == weighted_runs
    # with the right relation only the perturbed bundles fail
    _, witnesses = ref_indicator_weights(
        gadget, bundles, misses(coordinate_collision_predicate(2))
    )
    assert {w[0] for w in witnesses} == {3, 4, 6}


def test_parsed_gadget_builds_one_table_per_check(monkeypatch):
    # parsing shares one Permutation per distinct image, so every bundle of
    # a parsed pwt1 gadget reuses the first bundle's table
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    gadget, bundles = pwt1_gadget(repeat_max3cut(4, pairs, 2))
    parsed = parse(serialize(gadget))
    built = count_tables(monkeypatch)
    assert check_bundle_exactly_one(parsed, bundles).passed
    relation_of = coordinate_collision_predicate(2)
    assert check_indicator_weights(parsed, bundles, relation_of).passed
    assert len(built) == 2


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


def test_local_search_builds_one_pair_of_rows_per_permutation(monkeypatch):
    generated = seeded_gugp(12, n=40, m=200, k=5, nwa=True)
    # every third edge holds an equal copy: a distinct object with its own rows
    inst = GugpInstance(generated.n, generated.k, tuple(
        GugpEdge(e.u, e.v, e.weight, Permutation(e.pi.image) if i % 3 == 0 else e.pi)
        for i, e in enumerate(generated.edges)
    ))
    built = []
    hit_rows = solvers._hit_rows
    monkeypatch.setattr(solvers, "_hit_rows", lambda image: built.append(image) or hit_rows(image))

    def no_invert(_pi):
        raise AssertionError("local search inverted a Permutation")

    monkeypatch.setattr(Permutation, "invert", no_invert)
    result = local_search_half(inst)
    assert (result.labeling, result.visited) == ref_local_search(inst)
    assert len(built) == len({id(e.pi) for e in inst.edges}) < len(inst.edges)


# ---------------------------------------------------------------------------
# generation and serialization


def ref_generate(spec):
    """The per-edge generator: each edge builds its own ``Fraction(num, den)``
    (negated by ``-``) and its own ``Permutation``, in the documented draw
    order.  Returns the instance and the planted labeling (or None)."""
    stream = SplitMix64(spec.seed)

    def pair():
        u = stream.below(spec.n)
        v = stream.below(spec.n - 1)
        return u, v + 1 if v >= u else v

    def permutation(k):
        image = list(range(1, k + 1))
        stream.shuffle(image)
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
            m=draw(st.integers(min_value=1, max_value=12)),
            k=draw(st.integers(min_value=1, max_value=5)),
            nwa=flag == "nwa",
            max_ratio=bound if flag == "max_ratio" else None,
        )
    if family == "random-tsp":
        return GenSpec(family, seed, n=draw(st.integers(min_value=3, max_value=8)))
    if family == "planted-3col":
        n = draw(st.integers(min_value=2, max_value=9))
        base, extra = divmod(n, 3)
        sizes = [base + (1 if i < extra else 0) for i in range(3)]
        ceiling = sizes[0] * sizes[1] + sizes[0] * sizes[2] + sizes[1] * sizes[2]
        return GenSpec(family, seed, n=n, m=draw(st.integers(min_value=1, max_value=ceiling)))
    return GenSpec(
        family, seed,
        n=draw(st.integers(min_value=2, max_value=7)),
        m=draw(st.integers(min_value=1, max_value=10)),
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
    ],
    ids=lambda spec: spec.family,
)
def test_generate_matches_the_per_edge_reference_seeded(spec):
    instance, planted = ref_generate(spec)
    result = generate(spec)
    assert (serialize(result.instance), result.planted) == (ref_serialize(instance), planted)


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
    """The whole-line parser for GUGP, REL and T22 files: every line is split
    into all its tokens, each token converted on its own, and each constraint
    cached on its token tuple."""
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


# tokens that reach the deeper checks when swapped into a line
_JUNK = st.sampled_from(
    ["x", "0", "1", "2", "3", "-1", "1/1", "1/0", "e", "s", "pu", "pv", "V", "W", "#"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", " \t", "\xa0"])


@st.composite
def noisy_texts(draw):
    """A canonical GUGP, REL or T22 file rewritten with runs of spaces and
    tabs between fields, leading and trailing whitespace, and comment and
    blank lines; some rewrites also replace, drop or insert one token of a
    line after the header."""
    kind = draw(st.sampled_from(["gugp", "rel", "t22"]))
    if kind == "gugp":
        inst = draw(gugp_instances(max_k=5, max_m=10))
    elif kind == "rel":
        inst = draw(relational_instances())
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
        edge_lines = [i for i, raw in enumerate(lines) if raw.startswith("e ")]
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
def test_parse_matches_the_whole_line_reference(text):
    assert outcome(parse, text) == outcome(ref_parse, text)


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
    ],
)
def test_parse_errors_match_the_whole_line_reference(text):
    found = outcome(parse, text)
    assert isinstance(found, tuple) and found == outcome(ref_parse, text)
