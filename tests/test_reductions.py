"""Every instance transformation: tour encoding, repetition,
parallel-edge gadgets, and negative-edge stripping."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    BundleMap,
    CapacityError,
    DegenerateInstanceError,
    GenSpec,
    GugpInstance,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    RepeatedInstance,
    SplitMix64,
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    ValidationError,
    all_coords_differ_relation,
    generate,
    isolated_left_vertices,
    labeling_to_tour,
    max3cut_instance,
    metrics,
    modplus,
    product_coloring,
    pwt1_gadget,
    repeat_max3cut,
    repeated_from_relational,
    rotation,
    satisfied_weight,
    strip_negative,
    t_contains,
    tour_to_labeling,
    tour_weight,
    tsp_to_min_nwa,
    two2two_relation,
    two2two_to_pwt_half,
    unsatisfied_weight,
)
from gugp_workbench import reductions
from gugp_workbench.reductions import (
    decode_label,
    decode_vertex,
    encode_label_tuple,
    encode_vertex_tuple,
    label_fold,
)

from conftest import gugp, identity, perm, permutations


# ---------------------------------------------------------------------------
# wrap-around arithmetic and rotations


def test_modplus_values():
    assert modplus(6, 4) == 2
    assert modplus(8, 4) == 4
    assert modplus(3, 4) == 3


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=20))
def test_modplus_range_and_congruence(m, n):
    r = modplus(m, n)
    assert 1 <= r <= n
    assert (m - r) % n == 0


def test_rotation_images():
    assert rotation(3, 1).image == (2, 3, 1)
    assert rotation(3, -1).image == (3, 1, 2)
    assert rotation(3, 0) == identity(3)


# ---------------------------------------------------------------------------
# tour encoding


def unit_triangle():
    return TspInstance(
        3,
        (
            (0, 1, Fraction(1)),
            (0, 2, Fraction(1)),
            (1, 2, Fraction(1)),
        ),
    )


def test_tsp_requires_all_pairs():
    with pytest.raises(ValidationError, match="exactly one weight"):
        TspInstance(3, ((0, 1, Fraction(1)), (0, 2, Fraction(1))))


def test_tsp_rejects_duplicates_and_nonpositive():
    with pytest.raises(ValidationError):
        TspInstance(
            3,
            (
                (0, 1, Fraction(1)),
                (1, 0, Fraction(2)),
                (0, 2, Fraction(1)),
                (1, 2, Fraction(1)),
            ),
        )
    with pytest.raises(ValidationError):
        TspInstance(
            3,
            (
                (0, 1, Fraction(-1)),
                (0, 2, Fraction(1)),
                (1, 2, Fraction(1)),
            ),
        )


def test_tsp_normalizes_pair_order():
    inst = TspInstance(
        3,
        (
            (1, 0, Fraction(4)),
            (2, 0, Fraction(5)),
            (2, 1, Fraction(6)),
        ),
    )
    assert inst.weights == (
        (0, 1, Fraction(4)),
        (0, 2, Fraction(5)),
        (1, 2, Fraction(6)),
    )
    scale, dist = inst.distances
    assert Fraction(dist[0][1], scale) == Fraction(dist[1][0], scale) == 4
    assert Fraction(dist[1][2], scale) == Fraction(dist[2][1], scale) == 6


def test_encoding_structure():
    encoded, bundles = tsp_to_min_nwa(unit_triangle())
    assert encoded.k == 3
    assert len(encoded.edges) == 9
    assert bundles == BundleMap(3, 3)
    big = Fraction(3)  # n * max weight
    for i in range(3):
        block = encoded.edges[3 * i : 3 * i + 3]
        assert block[0].weight == -big
        assert block[0].pi == identity(3)
        assert block[1].weight == -1 and block[1].pi == rotation(3, 1)
        assert block[2].weight == -1 and block[2].pi == rotation(3, -1)


def test_encoding_scale_uses_max_weight():
    tsp = TspInstance(
        3,
        (
            (0, 1, Fraction(7, 2)),
            (0, 2, Fraction(1)),
            (1, 2, Fraction(2)),
        ),
    )
    encoded, _ = tsp_to_min_nwa(tsp)
    assert min(e.weight for e in encoded.edges) == -Fraction(21, 2)


def test_tour_to_labeling_triangle():
    assert tour_to_labeling(unit_triangle(), (0, 1, 2)) == (1, 2, 3)


def test_labeling_to_tour_rejects_non_bijection():
    with pytest.raises(ValidationError, match="not a bijection"):
        labeling_to_tour(unit_triangle(), (1, 1, 2))


def test_tour_round_trip_up_to_rotation():
    tsp = unit_triangle()
    for tour in itertools.permutations(range(3)):
        recovered = labeling_to_tour(tsp, tour_to_labeling(tsp, tour))
        doubled = recovered + recovered
        assert any(
            doubled[i : i + 3] == tour for i in range(3)
        ), (tour, recovered)


def test_tour_rejects_revisits():
    with pytest.raises(ValidationError, match="every vertex exactly once"):
        tour_to_labeling(unit_triangle(), (0, 1, 1))


def test_tour_weight_matches_satisfied_weight():
    tsp = TspInstance(
        4,
        tuple(
            (u, v, Fraction(u + v + 1))
            for u in range(4)
            for v in range(u + 1, 4)
        ),
    )
    encoded, _ = tsp_to_min_nwa(tsp)
    for tail in itertools.permutations(range(1, 4)):
        tour = (0,) + tail
        labeling = tour_to_labeling(tsp, tour)
        assert tour_weight(tsp, tour) == abs(satisfied_weight(encoded, labeling))


@pytest.mark.parametrize("n", range(3, 10))
def test_distances_are_the_scaled_pair_weights_both_ways(n):
    tsp = generate(GenSpec("random-tsp", seed=n, n=n)).instance
    scale, dist = tsp.distances
    assert tsp.distances is tsp.distances
    assert len(dist) == n and all(len(row) == n for row in dist)
    assert all(dist[v][v] == 0 for v in range(n))
    for u, v, w in tsp.weights:
        assert dist[u][v] == dist[v][u]
        assert Fraction(dist[u][v], scale) == w


def test_non_bijective_labelings_cost_at_least_the_scale():
    tsp = unit_triangle()
    encoded, _ = tsp_to_min_nwa(tsp)
    big = Fraction(3)
    for labeling in itertools.product((1, 2, 3), repeat=3):
        if sorted(labeling) != [1, 2, 3]:
            assert abs(satisfied_weight(encoded, labeling)) >= big


# ---------------------------------------------------------------------------
# mixed-radix encodings


def test_vertex_encoding_most_significant_first():
    assert encode_vertex_tuple((1, 2), 3) == 5
    assert encode_vertex_tuple((0, 0, 0), 4) == 0
    assert decode_vertex(5, 3, 2) == (1, 2)


def test_label_encoding_most_significant_first():
    assert encode_label_tuple((1,)) == 1
    assert encode_label_tuple((3,)) == 3
    assert encode_label_tuple((1, 1)) == 1
    assert encode_label_tuple((1, 2)) == 2
    assert encode_label_tuple((2, 1)) == 4
    assert encode_label_tuple((3, 3)) == 9
    assert decode_label(4, 2) == (2, 1)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_vertex_encoding_round_trip(base, fold, data):
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=base - 1))
        for _ in range(fold)
    )
    assert decode_vertex(encode_vertex_tuple(coords, base), base, fold) == coords


@given(st.integers(min_value=1, max_value=5), st.data())
def test_label_encoding_round_trip(fold, data):
    colors = tuple(
        data.draw(st.integers(min_value=1, max_value=3)) for _ in range(fold)
    )
    assert decode_label(encode_label_tuple(colors), fold) == colors


def test_all_coords_differ_relation_sizes():
    assert len(all_coords_differ_relation(1).pairs) == 6
    assert len(all_coords_differ_relation(2).pairs) == 36


def test_max3cut_edges_demand_differing_labels():
    inst = max3cut_instance(3, ((0, 1), (1, 2)))
    differ = frozenset((a, b) for a in range(1, 4) for b in range(1, 4) if a != b)
    assert differ == all_coords_differ_relation(1).pairs
    assert all(e.rel.pairs == differ and e.weight == 1 for e in inst.edges)


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_max3cut_instance_equals_the_hand_built_game_at_every_fold(fold):
    # unsorted, with a repeated pair and both orientations of another, as a
    # source read off a gadget's bundles can be
    pairs = ((2, 0), (0, 1), (2, 0), (1, 0), (3, 2))
    rel = all_coords_differ_relation(fold)
    edges = tuple(RelEdge(u, v, Fraction(1), rel) for u, v in pairs)
    want = RelationalInstance(4, 3**fold, 3**fold, edges)
    assert max3cut_instance(4, pairs, fold) == want


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_repeated_instance_serializes_through_max3cut_instance(fold):
    r = repeat_max3cut(3, triangle_pairs(), fold)
    assert r.to_relational() == max3cut_instance(r.n, r.edges, r.fold)


@pytest.mark.parametrize("fold", [0, -1])
def test_max3cut_instance_refuses_a_fold_below_one(fold):
    with pytest.raises(ValidationError, match=r"^fold must be at least 1$"):
        max3cut_instance(3, ((0, 1),), fold)


# ---------------------------------------------------------------------------
# repetition


def triangle_pairs():
    return ((0, 1), (1, 2), (2, 0))


def test_repeat_l1_recovers_base():
    repeated = repeat_max3cut(3, triangle_pairs(), 1)
    assert repeated.n == 3
    assert len(repeated.edges) == 3
    assert repeated.to_relational().k1 == 3


def test_repeat_k3_l2_sizes():
    repeated = repeat_max3cut(3, triangle_pairs(), 2)
    assert repeated.n == 9
    assert len(repeated.edges) == 18
    # independent count: ordered coordinate pairs 6^2 = 36, halved by
    # unordered dedupe
    ordered = set()
    base = {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}
    for (a1, b1), (a2, b2) in itertools.product(base, repeat=2):
        u = encode_vertex_tuple((a1, a2), 3)
        v = encode_vertex_tuple((b1, b2), 3)
        ordered.add((min(u, v), max(u, v)))
    assert set(repeated.edges) == ordered
    assert len(ordered) == 18


def test_repeat_single_edge_l2_sizes():
    repeated = repeat_max3cut(2, ((0, 1),), 2)
    assert repeated.n == 4
    assert len(repeated.edges) == 2


def test_repeat_rejects_self_loops():
    with pytest.raises(ValidationError):
        repeat_max3cut(2, ((0, 0),), 1)


def test_repeat_caps():
    with pytest.raises(CapacityError):
        repeat_max3cut(3, triangle_pairs(), 7)  # 3^7 labels > 729
    with pytest.raises(CapacityError):
        repeat_max3cut(12, ((0, 1),), 4)  # 12^4 vertices > 20000


@pytest.mark.parametrize(
    "n, pairs, fold",
    [(2, ((0, 1),), 4), (3, triangle_pairs(), 2), (4, ((0, 1), (1, 2), (2, 3)), 3)],
)
def test_repeat_size_cap_boundary(monkeypatch, n, pairs, fold):
    # a simple graph with m edges repeats to (2m)^l / 2 edges, each holding
    # the 6^l pairs of the all-coordinates-differ relation
    repeated = repeat_max3cut(n, pairs, fold)
    assert 2 * len(repeated.edges) == (2 * len(pairs)) ** fold
    assert len(all_coords_differ_relation(fold).pairs) == 6**fold
    size = len(repeated.edges) * 6**fold
    monkeypatch.setattr(reductions, "REPEAT_SIZE_CAP", size)
    assert repeat_max3cut(n, pairs, fold) == repeated
    monkeypatch.setattr(reductions, "REPEAT_SIZE_CAP", size - 1)
    message = rf"\^{fold}/2 edges \* 6\^{fold} pairs exceeds cap {size - 1}$"
    with pytest.raises(CapacityError, match=message):
        repeat_max3cut(n, pairs, fold)


def test_label_fold_refuses_a_fold_over_the_label_cap():
    assert label_fold(729) == 6
    with pytest.raises(CapacityError, match=r"^label count 3\^7 exceeds cap 729$"):
        label_fold(3**7)
    # a REL header of 3^25 labels and no edges: the fold-25 relation alone
    # would take k^2 steps to build
    huge = RelationalInstance(2, 3**25, 3**25, ())
    with pytest.raises(CapacityError, match=r"^label count 3\^25 exceeds cap 729$"):
        repeated_from_relational(huge)


@pytest.mark.parametrize(
    "n, fold, base",
    [
        (10**12, 2, 10**6),
        (3**12, 3, 81),
        (1, 3, 1),
        (10**6 + 1, 2, None),
        (63, 3, None),
    ],
)
def test_repeated_base_is_the_exact_integer_root(n, fold, base):
    instance = RelationalInstance(n, 3**fold, 3**fold, ())
    if base is None:
        with pytest.raises(ValidationError, match="not a perfect power"):
            repeated_from_relational(instance)
    else:
        assert repeated_from_relational(instance).base_n == base


def test_repeated_round_trip_through_relational():
    repeated = repeat_max3cut(3, triangle_pairs(), 2)
    assert repeated_from_relational(repeated.to_relational()) == repeated


@pytest.mark.parametrize("where", [(0, 1, 2), (5, 11, 12)], ids=["first", "later"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (("weight", "relation"), "^repeated 3-cut edges carry unit weight$"),
        (("relation", "weight"), "^every relation must be the all-coordinates-differ"),
        (("both", "relation"), "^repeated 3-cut edges carry unit weight$"),
    ],
    ids=["weight-first", "relation-first", "one-edge"],
)
def test_repeated_from_relational_reports_the_first_bad_edge(
    where, shared, bad, message
):
    # each relation object is compared once, so a relation met before, as
    # the same object or an equal copy, must neither hide nor reorder errors
    good = repeat_max3cut(3, triangle_pairs(), 2).to_relational()
    differ = all_coords_differ_relation(2)
    near = Relation(9, 9, differ.pairs - {min(differ.pairs)})

    def edge(e, weight, like):
        rel = like if shared else Relation(9, 9, frozenset(like.pairs))
        return RelEdge(e.u, e.v, weight, rel)

    edges = [edge(e, e.weight, differ) for e in good.edges]
    clean = dataclasses.replace(good, edges=tuple(edges))
    assert repeated_from_relational(clean) == repeated_from_relational(good)
    # the first two edges of ``where`` go bad in the given order, and the
    # third repeats the bad relation
    for i, kind in zip(where, bad + ("relation",)):
        weight = Fraction(2 if kind in ("weight", "both") else 1)
        edges[i] = edge(good.edges[i], weight, differ if kind == "weight" else near)
    with pytest.raises(ValidationError, match=message):
        repeated_from_relational(dataclasses.replace(good, edges=tuple(edges)))


def test_product_coloring_l1_is_base():
    assert product_coloring((1, 2, 3), 1) == (1, 2, 3)


@pytest.mark.parametrize("chi", [(), (1,), (1, 2, 3)])
@pytest.mark.parametrize("fold", [-1, -3])
def test_product_coloring_refuses_a_negative_fold(chi, fold):
    with pytest.raises(ValidationError, match="^fold must be non-negative$"):
        product_coloring(chi, fold)


def test_product_coloring_satisfies_repeated_triangle():
    repeated = repeat_max3cut(3, triangle_pairs(), 2)
    inst = repeated.to_relational()
    lifted = product_coloring((1, 2, 3), 2)
    total = sum((e.weight for e in inst.edges), Fraction(0))
    assert satisfied_weight(inst, lifted) == total == 18


def test_constant_coloring_satisfies_nothing():
    repeated = repeat_max3cut(3, triangle_pairs(), 2)
    inst = repeated.to_relational()
    lifted = product_coloring((2, 2, 2), 2)
    assert satisfied_weight(inst, lifted) == 0


# ---------------------------------------------------------------------------
# 3^l parallel-edge gadget


def test_unit_gadget_l1_weights():
    gadget, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 1))
    assert gadget.k == 3
    weights = [e.weight for e in gadget.edges]
    assert weights == [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)]
    images = [e.pi.image for e in gadget.edges]
    assert images == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert bundles.source_count == 1


def test_unit_gadget_l2_weights():
    # the doubled base edge repeats into 2 tuple edges, so take one bundle
    gadget, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 2))
    assert gadget.k == 9
    assert bundles == BundleMap(2, 9)
    block = gadget.edges[:9]
    negatives = [e for e in block if e.weight < 0]
    positives = [e for e in block if e.weight > 0]
    assert len(negatives) == 5 and len(positives) == 4
    assert {e.weight for e in negatives} == {Fraction(-3, 8)}
    assert {e.weight for e in positives} == {Fraction(5, 8)}


def test_unit_gadget_offsets_order_and_meaning():
    # offsets iterate lexicographically; the edge for offset (i1, i2) shifts
    # coordinate j of the label by i_j - 1 mod 3
    gadget, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 2))
    offsets = list(itertools.product((1, 2, 3), repeat=2))
    block = gadget.edges[: bundles.size]
    assert len(block) == 9
    for offset, e in zip(offsets, block):
        has_fixed_coord = 1 in offset
        assert (e.weight < 0) == has_fixed_coord
        for label in range(1, 10):
            colors = decode_label(label, 2)
            expected = tuple(
                modplus(c + i - 1, 3) for c, i in zip(colors, offset)
            )
            assert decode_label(e.pi.apply(label), 2) == expected


@given(st.integers(min_value=1, max_value=4))
def test_gadget_ratio_closed_form(fold):
    repeated = repeat_max3cut(2, ((0, 1),), fold)
    gadget, _ = pwt1_gadget(repeated)
    m = metrics(gadget)
    assert m.ratio == 1 - Fraction(1, 2**fold)
    assert m.sigma == len(repeated.edges) * Fraction(
        3**fold - 2**fold, 3**fold - 1
    )


def test_gadget_bundles_share_weight_layout():
    gadget, bundles = pwt1_gadget(repeat_max3cut(3, triangle_pairs(), 1))
    assert bundles == BundleMap(3, 3)
    for i in range(3):
        block = gadget.edges[3 * i : 3 * i + 3]
        assert [e.weight for e in block] == [
            Fraction(-1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
        ]


# ---------------------------------------------------------------------------
# block relation and 2k parallel-edge gadget


def test_t_block_membership():
    inside = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
    for a in range(1, 5):
        for b in range(1, 5):
            assert t_contains(a, b) == ((a, b) in inside)


def assert_two_to_two(rel):
    """Every row has two entries, and the rows pair up into k disjoint
    blocks: each block is the row of exactly two left labels, and the k
    blocks cover all 2k right labels."""
    rows = [
        frozenset(b for a, b in rel.pairs if a == i) for i in range(1, rel.k1 + 1)
    ]
    assert all(len(row) == 2 for row in rows)
    blocks = set(rows)
    assert sorted(rows.count(block) for block in blocks) == [2] * (rel.k1 // 2)
    assert frozenset().union(*blocks) == frozenset(range(1, rel.k2 + 1))


def test_two2two_relation_identity_is_block_diagonal():
    rel = two2two_relation(identity(4), identity(4))
    assert rel.pairs == frozenset(
        {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
    )
    assert_two_to_two(rel)


@given(permutations(k=4), permutations(k=4))
def test_two2two_relation_size_k2(pu, pv):
    assert len(two2two_relation(pu, pv).pairs) == 8


@given(permutations(k=6), permutations(k=6))
def test_two2two_relation_size_k3(pu, pv):
    rel = two2two_relation(pu, pv)
    assert len(rel.pairs) == 12
    assert_two_to_two(rel)


def test_two2two_relation_rejects_odd_sizes():
    with pytest.raises(ValidationError):
        two2two_relation(identity(3), identity(3))


def test_relations_are_each_edges_relation_derived_once():
    source = generate(GenSpec("random-t22", seed=3, n=6, m=12, k=3)).instance
    relations = source.relations
    assert relations == tuple(
        two2two_relation(e.pi_u, e.pi_v) for e in source.edges
    )
    assert source.relations is relations


def test_half_size_lower_bound_enforced():
    with pytest.raises(DegenerateInstanceError):
        TwoToTwoInstance(
            2,
            1,
            (T22Edge(0, 1, Fraction(1), identity(2), identity(2)),),
        )


def single_t22(pi_u, pi_v, k):
    return TwoToTwoInstance(
        2, k, (T22Edge(0, 1, Fraction(1), pi_u, pi_v),)
    )


def test_bundle_images_identity_k2():
    gadget, _ = two2two_to_pwt_half(single_t22(identity(4), identity(4), 2))
    assert [e.pi.image for e in gadget.edges] == [
        (1, 2, 3, 4),
        (2, 1, 4, 3),
        (3, 4, 1, 2),
        (4, 3, 2, 1),
    ]
    assert [e.weight for e in gadget.edges] == [
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(-1, 3),
        Fraction(-1, 3),
    ]


def test_bundle_weights_k3():
    gadget, _ = two2two_to_pwt_half(single_t22(identity(6), identity(6), 3))
    weights = [e.weight for e in gadget.edges]
    assert weights[:2] == [Fraction(4, 5), Fraction(4, 5)]
    assert weights[2:] == [Fraction(-1, 5)] * 4


@given(permutations(k=4), permutations(k=4))
def test_bundle_conjugation_formula(pu, pv):
    # independent route: build each bundle permutation directly from the
    # definition pi_v^{-1}(shift_m(pi_u(x))) with the shifts spelled out
    gadget, _ = two2two_to_pwt_half(single_t22(pu, pv, 2))

    def shift(m, x):
        j = (m + 1) // 2
        if m % 2 == 1:
            return modplus(x + 2 * j - 2, 4)
        if x % 2 == 1:
            return modplus(x + 2 * j - 1, 4)
        return modplus(x + 2 * j - 3, 4)

    inv_v = {pv.apply(x): x for x in range(1, 5)}
    for m, e in enumerate(gadget.edges, start=1):
        expected = tuple(inv_v[shift(m, pu.apply(x))] for x in range(1, 5))
        assert e.pi.image == expected


@given(permutations(k=4), permutations(k=4))
def test_bundle_graphs_tile_the_label_square(pu, pv):
    gadget, _ = two2two_to_pwt_half(single_t22(pu, pv, 2))
    seen = set()
    for e in gadget.edges:
        for a in range(1, 5):
            seen.add((a, e.pi.apply(a)))
    assert len(seen) == 16


@given(permutations(k=4), permutations(k=4), st.data())
def test_bundle_unsat_indicates_source_violation(pu, pv, data):
    source = single_t22(pu, pv, 2)
    gadget, _ = two2two_to_pwt_half(source)
    a = data.draw(st.integers(min_value=1, max_value=4))
    b = data.draw(st.integers(min_value=1, max_value=4))
    source_ok = t_contains(pu.apply(a), pv.apply(b))
    expected = Fraction(0) if source_ok else Fraction(1)
    assert unsatisfied_weight(gadget, (a, b)) == expected


def test_pwt_half_size_cap_boundary(monkeypatch):
    # three source edges at k = 2: 3 bundles of 4 edges, each with 4 image
    # entries, so the gadget writes 3 * 4^2 = 48 entries
    source = TwoToTwoInstance(3, 2, tuple(
        T22Edge(u, v, Fraction(1), identity(4), perm(2, 1, 4, 3))
        for u, v in ((0, 1), (1, 2), (2, 0))
    ))
    gadget = two2two_to_pwt_half(source)
    assert sum(e.pi.size for e in gadget[0].edges) == 48
    monkeypatch.setattr(reductions, "REPEAT_SIZE_CAP", 48)
    assert two2two_to_pwt_half(source) == gadget
    monkeypatch.setattr(reductions, "REPEAT_SIZE_CAP", 47)
    message = r"^gadget size 3 \* 4\^2 image entries exceeds cap 47$"
    with pytest.raises(CapacityError, match=message):
        two2two_to_pwt_half(source)


# ---------------------------------------------------------------------------
# stripping


def test_strip_keeps_only_positive_edges():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1)))
    stripped = strip_negative(inst)
    assert len(stripped.edges) == 1
    assert stripped.edges[0].weight == 1


def test_strip_is_identity_on_all_positive():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, 2, perm(2, 1)))
    assert strip_negative(inst) == inst


def test_strip_unit_gadget_keeps_moving_edges():
    gadget, _ = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 1))
    stripped = strip_negative(gadget)
    assert len(stripped.edges) == 2
    assert all(e.weight == Fraction(1, 2) for e in stripped.edges)


def test_strip_requires_a_positive_edge():
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    with pytest.raises(DegenerateInstanceError):
        strip_negative(inst)


# ---------------------------------------------------------------------------
# bundle bookkeeping


def test_bundle_map_is_a_count_and_a_size():
    bundles = BundleMap(3, 4)
    assert (bundles.source_count, bundles.size) == (3, 4)
    assert [f.name for f in dataclasses.fields(BundleMap)] == ["source_count", "size"]
    assert BundleMap(0, 1).source_count == 0  # a source without edges
    for count, size in ((-1, 2), (2, 0), (0, 0)):
        with pytest.raises(ValidationError, match="count >= 0 and a size >= 1"):
            BundleMap(count, size)


# ---------------------------------------------------------------------------
# refusals only a library call reaches


def _bad_shape_game():
    edge = RelEdge(0, 1, Fraction(1), Relation(3, 3, frozenset()))
    return RelationalInstance(2, 2, 2, (edge,))


def _triangle():
    return TspInstance(3, ((0, 1, 1), (0, 2, 1), (1, 2, 1)))


def _narrow_t22_game():
    edge = T22Edge(0, 1, Fraction(1), identity(2), identity(2))
    return TwoToTwoInstance(2, 2, (edge,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RelationalInstance(2, 2, 2, (), sides=("V",)), ValidationError,
         "bipartite instance needs a side per vertex"),
        (lambda: RelationalInstance(2, 2, 2, (), sides=("V", "X")), ValidationError,
         "vertex sides must be 'V' or 'W'"),
        (_bad_shape_game, ValidationError,
         "edge (0,1) relation shape (3,3) != instance (2,2)"),
        (lambda: modplus(1, 0), ValidationError, "modulus must be positive"),
        (lambda: TspInstance(2, ()), ValidationError,
         "travelling salesman needs at least 3 vertices"),
        (lambda: tour_weight(_triangle(), (0, 1, 1)), ValidationError,
         "tour must visit every vertex exactly once"),
        (lambda: encode_vertex_tuple((0, 2), 2), ValidationError,
         "coordinate 2 out of range [0..1]"),
        (lambda: decode_vertex(4, 2, 2), ValidationError,
         "vertex 4 out of range for 2^2"),
        (lambda: encode_label_tuple((1, 4)), ValidationError,
         "color 4 out of range [1..3]"),
        (lambda: decode_label(10, 2), ValidationError,
         "label 10 out of range for 3^2"),
        (lambda: RepeatedInstance(0, 1, ()), ValidationError,
         "base size and fold must be positive"),
        (lambda: RepeatedInstance(2, 1, ((0, 2),)), ValidationError,
         "edge (0,2) out of vertex range"),
        (lambda: RepeatedInstance(2, 1, ((1, 0),)), ValidationError,
         "repeated edges must be stored (min, max)"),
        (lambda: RepeatedInstance(3, 1, ((1, 2), (0, 1))), ValidationError,
         "repeated edges must be sorted"),
        (lambda: repeat_max3cut(2, ((0, 1),), 0), ValidationError,
         "fold must be at least 1"),
        (lambda: repeat_max3cut(2, ((0, 2),), 1), ValidationError,
         "edge (0,2) out of vertex range"),
        (lambda: product_coloring((1, 4), 1), ValidationError,
         "color 4 out of range [1..3]"),
        (lambda: two2two_relation(identity(2), identity(4)), ValidationError,
         "endpoint permutations must have equal size"),
        (_narrow_t22_game, ValidationError,
         "edge (0,1) permutations must act on [1..4]"),
        (lambda: SplitMix64(1).below(0), ValueError, "bound must be positive"),
        (lambda: isolated_left_vertices(max3cut_instance(2, ((0, 1),))),
         ValidationError, "smoothness applies to bipartite instances"),
    ],
)
def test_library_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
