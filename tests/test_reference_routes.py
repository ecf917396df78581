"""The integer routes against plain ``Fraction`` references.

Each reference below is the direct per-edge ``Fraction`` loop for one
weight sum, solver or verifier, or the label-decoding form of one indicator
predicate.  The package's integer and relation-built routes must match it
exactly: the same values, labelings, work counts, notes, and witnesses in
scan order.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    BundleMap,
    DegenerateInstanceError,
    GenSpec,
    GugpEdge,
    GugpInstance,
    InstanceMetrics,
    Objective,
    ObjectiveMismatchError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    SplitMix64,
    TspInstance,
    ValidationError,
    brute_force,
    brute_force_relational,
    check_bundle_exactly_one,
    check_indicator_weights,
    check_strip_bounds,
    coordinate_collision_predicate,
    decode_label,
    exhaustive_tsp_optimum,
    generate,
    labeling_value,
    local_search_half,
    metrics,
    pair_block_predicate,
    pwt1_gadget,
    relational_value,
    repeat_max3cut,
    satisfied_weight,
    t_contains,
    unsatisfied_weight,
)

from gugp_workbench.solvers import BLOCK_LABELINGS, _best_labeling, _prefix_scan
from gugp_workbench.verification import _strip_scan

from conftest import gugp, gugp_instances, labelings_for, perm, rationals

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
        images = [(0,) + gadget.edges[j].pi.image for j in range(*bundles.ranges[i])]
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
        edges = [gadget.edges[j] for j in range(*bundles.ranges[i])]
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
def relational_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    bipartite = draw(st.booleans())
    k1 = draw(st.integers(min_value=1, max_value=3))
    k2 = draw(st.integers(min_value=1, max_value=3)) if bipartite else k1
    sides = None
    if bipartite:
        sides = ("V",) + tuple(draw(st.sampled_from("VW")) for _ in range(n - 2)) + ("W",)
    edges = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
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
def bundled_gadgets(draw):
    """Arbitrary bundles (most of them failing both bundle checks)."""
    k = draw(st.integers(min_value=1, max_value=4))
    edges, ranges = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        u = draw(st.integers(min_value=0, max_value=2))
        v = (u + draw(st.integers(min_value=1, max_value=2))) % 3
        start = len(edges)
        for _ in range(draw(st.integers(min_value=1, max_value=k + 1))):
            image = draw(st.permutations(tuple(range(1, k + 1))))
            edges.append(GugpEdge(u, v, draw(rationals()), Permutation(tuple(image))))
        ranges.append((start, len(edges)))
    return GugpInstance(3, k, tuple(edges)), BundleMap(tuple(ranges))


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


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_collision_predicate_matches_reference(fold):
    _, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), fold))
    predicate = coordinate_collision_predicate(fold)
    reference = ref_collision_predicate(fold)
    labels = range(1, 3**fold + 1)
    for i in range(bundles.source_count):
        for a, b in itertools.product(labels, labels):
            assert predicate(i, a, b) == reference(i, a, b)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pair_block_predicate_matches_reference(seed, k):
    source = generate(GenSpec("random-t22", seed=seed, n=4, m=5, k=k)).instance
    predicate = pair_block_predicate(source)
    reference = ref_pair_block_predicate(source)
    labels = range(1, 2 * k + 1)
    for i in range(len(source.edges)):
        for a, b in itertools.product(labels, labels):
            assert predicate(i, a, b) == reference(i, a, b)


def test_predicates_reject_out_of_range_labels():
    source = generate(GenSpec("random-t22", seed=1, n=3, m=2, k=2)).instance
    for predicate, k in (
        (coordinate_collision_predicate(2), 9),
        (pair_block_predicate(source), 4),
    ):
        for a, b in ((0, 1), (k + 1, 1), (1, 0), (1, k + 1)):
            with pytest.raises(ValidationError):
                predicate(0, a, b)


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


def collision_or_diagonal(bundle, a, b):
    return (bundle + a + b) % 3 == 0 or a == b


@settings(max_examples=80, deadline=None)
@given(bundled_gadgets())
def test_bundle_checks_match_reference(gadget_and_bundles):
    gadget, bundles = gadget_and_bundles
    exactly_one = check_bundle_exactly_one(gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (exactly_one.cases, list(exactly_one.witnesses)) == (cases, witnesses[:50])
    indicator = check_indicator_weights(gadget, bundles, collision_or_diagonal)
    cases, witnesses = ref_indicator_weights(gadget, bundles, collision_or_diagonal)
    assert (indicator.cases, list(indicator.witnesses)) == (cases, witnesses[:50])


@pytest.mark.parametrize("fold", [1, 2])
def test_bundle_checks_match_reference_on_gadgets(fold):
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    gadget, bundles = pwt1_gadget(repeat_max3cut(4, pairs, fold))
    predicate = coordinate_collision_predicate(fold)
    # a wrong predicate makes every bundle fail somewhere
    wrong = coordinate_collision_predicate(fold + 1)
    for pred in (predicate, wrong):
        report = check_indicator_weights(gadget, bundles, pred)
        cases, witnesses = ref_indicator_weights(gadget, bundles, pred)
        assert report.cases == cases
        assert list(report.witnesses) == witnesses[:50]
    report = check_bundle_exactly_one(gadget, bundles)
    cases, witnesses = ref_bundle_exactly_one(gadget, bundles)
    assert (report.cases, list(report.witnesses)) == (cases, witnesses[:50])


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
