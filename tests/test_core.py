"""Permutations, relations, relation classification, instances, metrics."""

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
    RelationKind,
    RelationalInstance,
    ValidationError,
    classify_relation,
    metrics,
    pwt1_gadget,
    repeat_max3cut,
)

from conftest import gugp, identity, perm, permutations, relations


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
# relations and classification


def test_relation_rejects_out_of_range_pairs():
    with pytest.raises(ValidationError):
        Relation(2, 2, frozenset({(1, 3)}))
    with pytest.raises(ValidationError):
        Relation(2, 2, frozenset({(0, 1)}))


def graph_of(p: Permutation) -> Relation:
    return Relation(p.size, p.size, frozenset(enumerate(p.image, start=1)))


def test_graph_of_permutation_classifies_as_permutation():
    rel = graph_of(identity(3))
    assert rel.pairs == frozenset({(1, 1), (2, 2), (3, 3)})
    assert classify_relation(rel) == RelationKind.PERMUTATION


def test_two_to_one_projection_classification():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    assert classify_relation(rel) == RelationKind.TWO_TO_ONE_PROJECTION


def test_complement_of_identity_k2_classification():
    rel = Relation(2, 2, frozenset({(1, 2), (2, 1)}))
    assert classify_relation(rel) == RelationKind.COMPLEMENT_OF_PERMUTATION


@given(permutations(max_k=5))
def test_complement_classification(p):
    rel = Relation.complement_of(p)
    if p.size == 1:
        # the complement of the only permutation on [1] is the empty
        # relation, which still matches the complement shape exactly
        assert rel.pairs == frozenset()
    assert classify_relation(rel) == RelationKind.COMPLEMENT_OF_PERMUTATION


@given(permutations(max_k=6))
def test_permutation_graph_classification(p):
    kind = classify_relation(graph_of(p))
    if p.size == 2:
        # on two labels every permutation graph is also a complement;
        # the complement reading wins by convention
        assert kind == RelationKind.COMPLEMENT_OF_PERMUTATION
    else:
        assert kind == RelationKind.PERMUTATION


def test_two_to_two_classification():
    # blocks {1,2}x{1,2} and {3,4}x{3,4}
    pairs = frozenset(
        {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4)}
    )
    assert classify_relation(Relation(4, 4, pairs)) == RelationKind.TWO_TO_TWO


def test_two_to_two_requires_disjoint_blocks():
    # rows of size 2 that cannot be grouped into 2x2 blocks
    pairs = frozenset(
        {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 1)}
    )
    assert classify_relation(Relation(4, 4, pairs)) == RelationKind.GENERAL


def test_general_classification():
    rel = Relation(3, 3, frozenset({(1, 1), (1, 2), (1, 3)}))
    assert classify_relation(rel) == RelationKind.GENERAL


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
            bipartite=True,
            sides=("V", "V"),
        )


def test_bipartite_label_count_routing():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    inst = RelationalInstance(
        2,
        4,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        bipartite=True,
        sides=("V", "W"),
    )
    assert inst.label_count(0) == 4
    assert inst.label_count(1) == 2


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


@given(relations())
def test_classification_is_deterministic(rel):
    assert classify_relation(rel) == classify_relation(rel)
