"""Permutations, relations, instances, metrics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gugp_workbench import (
    GugpEdge,
    GugpInstance,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    T22Edge,
    TwoToTwoInstance,
    ValidationError,
    check_labeling,
    metrics,
    pwt1_gadget,
    repeat_max3cut,
)

from conftest import gugp, identity, perm, permutations


# ---------------------------------------------------------------------------
# permutation algebra


def test_apply_identity():
    assert identity(3).apply(2) == 2


def test_apply_direct_lookup():
    assert perm(2, 3, 1).apply(3) == 1


def test_apply_out_of_range():
    with pytest.raises(ValidationError):
        perm(2, 3, 1).apply(4)
    with pytest.raises(ValidationError):
        perm(2, 3, 1).apply(0)


def test_invert_identity_is_self():
    assert identity(4).invert() == identity(4)


def test_invert_hand_case():
    assert perm(2, 3, 1).invert() == perm(3, 1, 2)


@given(permutations())
def test_invert_is_involution(p):
    assert p.invert().invert() == p


@given(permutations(), st.data())
def test_apply_then_invert_roundtrip(p, data):
    i = data.draw(st.integers(min_value=1, max_value=p.size))
    assert p.invert().apply(p.apply(i)) == i


def test_non_bijection_rejected():
    with pytest.raises(ValidationError, match="not a bijection"):
        Permutation((2, 2, 1))
    with pytest.raises(ValidationError, match="not a bijection"):
        Permutation((0, 1))
    with pytest.raises(ValidationError, match="at least one label"):
        Permutation(())


# ---------------------------------------------------------------------------
# relations


def test_relation_rejects_out_of_range_pairs():
    with pytest.raises(ValidationError):
        Relation(2, 2, frozenset({(1, 3)}))
    with pytest.raises(ValidationError):
        Relation(2, 2, frozenset({(0, 1)}))


def test_relation_contains():
    rel = Relation(2, 2, frozenset({(1, 2)}))
    assert (1, 2) in rel
    assert (2, 1) not in rel


# ---------------------------------------------------------------------------
# instance validation


def test_zero_weight_edge_rejected():
    with pytest.raises(ValidationError, match="zero-weight edge"):
        GugpEdge(0, 1, Fraction(0), identity(2))


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        GugpEdge(0, 0, Fraction(1), identity(2))


def test_vertex_out_of_range_rejected():
    e = GugpEdge(0, 5, Fraction(1), identity(2))
    with pytest.raises(ValidationError):
        GugpInstance(2, 2, (e,))


def test_permutation_size_mismatch_rejected():
    e = GugpEdge(0, 1, Fraction(1), identity(3))
    with pytest.raises(ValidationError):
        GugpInstance(2, 2, (e,))


def test_parallel_edges_allowed():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, 2, identity(2)))
    assert len(inst.edges) == 2


def test_relational_edge_weight_must_be_positive():
    rel = Relation(2, 2, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        RelEdge(0, 1, Fraction(-1), rel)
    with pytest.raises(ValidationError):
        RelEdge(0, 1, Fraction(0), rel)


def test_nonbipartite_requires_equal_label_counts():
    rel = Relation(2, 3, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        RelationalInstance(2, 2, 3, (RelEdge(0, 1, Fraction(1), rel),))


def test_bipartite_edges_must_cross_sides():
    rel = Relation(2, 2, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        RelationalInstance(
            2,
            2,
            2,
            (RelEdge(0, 1, Fraction(1), rel),),
            sides=("V", "V"),
        )


def test_bipartite_label_count_routing():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    inst = RelationalInstance(
        2,
        4,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    assert inst.label_count(0) == 4
    assert inst.label_count(1) == 2


# ---------------------------------------------------------------------------
# the rules every edge and instance type shares

ONE_PAIR = Relation(2, 2, frozenset({(1, 1)}))

EDGE_TYPES = {
    "gugp": lambda u, v, w: GugpEdge(u, v, w, identity(2)),
    "rel": lambda u, v, w: RelEdge(u, v, w, ONE_PAIR),
    "t22": lambda u, v, w: T22Edge(u, v, w, identity(4), identity(4)),
}

INSTANCE_TYPES = {
    "gugp": lambda n, e: GugpInstance(n, 2, e),
    "rel": lambda n, e: RelationalInstance(n, 2, 2, e),
    "rel-bipartite": lambda n, e: RelationalInstance(
        n, 2, 2, e, sides=("V",) + ("W",) * (n - 1)
    ),
    "t22": lambda n, e: TwoToTwoInstance(n, 2, e),
}


def _edges_for(kind, pairs):
    edge_kind = kind.split("-")[0]
    return tuple(EDGE_TYPES[edge_kind](u, v, Fraction(1)) for u, v in pairs)


@pytest.mark.parametrize("kind", EDGE_TYPES)
@pytest.mark.parametrize(
    "u, v, message",
    [
        (-1, 0, "vertex ids must be non-negative"),
        (0, -2, "vertex ids must be non-negative"),
        (1, 1, "self-loop at vertex 1"),
    ],
)
def test_every_edge_type_shares_the_endpoint_rule(kind, u, v, message):
    with pytest.raises(ValidationError) as excinfo:
        EDGE_TYPES[kind](u, v, Fraction(1))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", EDGE_TYPES)
def test_every_edge_type_stores_its_weight_as_a_fraction(kind):
    given_fraction = Fraction(3, 2)
    assert EDGE_TYPES[kind](0, 1, given_fraction).weight is given_fraction
    converted = EDGE_TYPES[kind](0, 1, 2).weight
    assert type(converted) is Fraction and converted == 2


@pytest.mark.parametrize("kind", INSTANCE_TYPES)
@pytest.mark.parametrize(
    "n, pairs, message",
    [
        (0, (), "instance needs at least one vertex"),
        (2, ((0, 2),), "edge (0,2) references vertex >= n=2"),
        (2, ((0, 1), (3, 1)), "edge (3,1) references vertex >= n=2"),
    ],
)
def test_every_instance_type_shares_the_vertex_range_rule(kind, n, pairs, message):
    with pytest.raises(ValidationError) as excinfo:
        INSTANCE_TYPES[kind](n, _edges_for(kind, pairs))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", INSTANCE_TYPES)
def test_every_instance_type_stores_its_edges_as_a_tuple(kind):
    edges = _edges_for(kind, [(0, 1)])
    assert INSTANCE_TYPES[kind](2, list(edges)).edges == edges


WIDE_LEFT = Relation(4, 2, frozenset({(1, 1), (4, 2)}))
LABELED = {
    "gugp": gugp(2, 2, (0, 1, 1, identity(2))),
    "rel": RelationalInstance(2, 2, 2, (RelEdge(0, 1, Fraction(1), ONE_PAIR),)),
    "rel-bipartite": RelationalInstance(
        2, 4, 2, (RelEdge(0, 1, Fraction(1), WIDE_LEFT),), sides=("V", "W")
    ),
}


@pytest.mark.parametrize(
    "kind, labeling, message",
    [
        ("gugp", (1,), "labeling has 1 entries, instance has 2 vertices"),
        ("gugp", (1, 3), "label 3 at vertex 1 out of range [1..2]"),
        ("rel", (1, 2, 1), "labeling has 3 entries, instance has 2 vertices"),
        ("rel", (0, 1), "label 0 at vertex 0 out of range [1..2]"),
        ("rel-bipartite", (), "labeling has 0 entries, instance has 2 vertices"),
        ("rel-bipartite", (5, 1), "label 5 at vertex 0 out of range [1..4]"),
        ("rel-bipartite", (4, 3), "label 3 at vertex 1 out of range [1..2]"),
    ],
)
def test_one_labeling_rule_serves_every_instance_kind(kind, labeling, message):
    with pytest.raises(ValidationError) as excinfo:
        check_labeling(LABELED[kind], labeling)
    assert str(excinfo.value) == message


def test_labelings_in_range_pass_for_every_instance_kind():
    for instance, labeling in zip(LABELED.values(), [(2, 1), (2, 2), (4, 2)]):
        check_labeling(instance, labeling)


def test_bipartite_is_whether_sides_are_given():
    assert LABELED["rel"].bipartite is False
    assert LABELED["rel-bipartite"].bipartite is True


# ---------------------------------------------------------------------------
# metrics


def test_metrics_direct_sums():
    inst = gugp(2, 2, (0, 1, 3, identity(2)), (1, 0, -1, identity(2)))
    m = metrics(inst)
    assert m.w_plus == 3
    assert m.w_minus == -1
    assert m.sigma == 2
    assert m.ratio == Fraction(1, 3)


def test_metrics_all_positive_ratio_zero():
    m = metrics(gugp(2, 2, (0, 1, 5, identity(2))))
    assert m.ratio == 0


def test_metrics_all_negative_ratio_undefined():
    m = metrics(gugp(2, 2, (0, 1, -5, identity(2))))
    assert m.ratio is None
    assert m.w_plus == 0
    assert m.sigma == -5


def test_metrics_single_edge_unit_gadget():
    repeated = repeat_max3cut(2, ((0, 1),), 1)
    gadget, _ = pwt1_gadget(repeated)
    m = metrics(gadget)
    assert m.w_plus == 1
    assert m.w_minus == Fraction(-1, 2)
    assert m.sigma == Fraction(1, 2)
    assert m.ratio == Fraction(1, 2)


@given(
    st.lists(
        st.fractions(
            min_value=-10, max_value=10, max_denominator=20
        ).filter(lambda w: w != 0),
        min_size=1,
        max_size=10,
    )
)
def test_metrics_match_independent_sums(weights):
    # independent oracle: recompute the aggregates with plain loops
    inst = GugpInstance(
        2, 2, tuple(GugpEdge(0, 1, w, identity(2)) for w in weights)
    )
    m = metrics(inst)
    pos = sum((w for w in weights if w > 0), Fraction(0))
    neg = sum((w for w in weights if w < 0), Fraction(0))
    assert m.w_plus == pos
    assert m.w_minus == neg
    assert m.sigma == pos + neg
    if pos > 0:
        assert m.ratio == -neg / pos
    else:
        assert m.ratio is None


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
                lambda w: w != 0
            )
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
                lambda w: w != 0
            )
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_metrics_additive_over_disjoint_union(left, right):
    a = GugpInstance(
        2, 2, tuple(GugpEdge(0, 1, w, identity(2)) for (w,) in left)
    )
    b = GugpInstance(
        2, 2, tuple(GugpEdge(0, 1, w, identity(2)) for (w,) in right)
    )
    union = GugpInstance(2, 2, a.edges + b.edges)
    ma, mb, mu = metrics(a), metrics(b), metrics(union)
    assert mu.w_plus == ma.w_plus + mb.w_plus
    assert mu.w_minus == ma.w_minus + mb.w_minus
    assert mu.sigma == ma.sigma + mb.sigma
