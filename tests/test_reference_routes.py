"""The integer pair-table routes against plain ``Fraction`` references.

Each reference below is the direct per-edge ``Fraction`` loop for one
solver or verifier.  The package's integer routes must match it exactly:
the same labelings, work counts, notes, and witnesses in scan order.
"""

import itertools
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
    Objective,
    ObjectiveMismatchError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    SplitMix64,
    brute_force,
    brute_force_relational,
    check_bundle_exactly_one,
    check_indicator_weights,
    check_strip_bounds,
    coordinate_collision_predicate,
    generate,
    labeling_value,
    local_search_half,
    metrics,
    pwt1_gadget,
    repeat_max3cut,
)

from conftest import gugp_instances, rationals

# ---------------------------------------------------------------------------
# references


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
        images = [(0,) + gadget.edges[j].pi.image for j in bundles.edge_range(i)]
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
        edges = [gadget.edges[j] for j in bundles.edge_range(i)]
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
    return RelationalInstance(n, k1, k2, tuple(edges), bipartite, sides)


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
