"""Permutations, relations, instances, metrics."""

import copy
import dataclasses
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gugp_workbench import (
    CapacityError,
    GenSpec,
    GugpEdge,
    GugpInstance,
    InstanceMetrics,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    Objective,
    ValidationError,
    check_labeling,
    generate,
    labeling_value,
    local_search_half,
    metrics,
    parse,
    pwt1_gadget,
    repeat_max3cut,
    satisfied_weight,
    serialize,
)
from gugp_workbench import core
from gugp_workbench.core import SCALED_BITS_CAP, scaled_weights

from conftest import (
    gugp,
    gugp_instances,
    identity,
    perm,
    permutations,
    ref_metrics,
    relational_instances,
)


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


def inverse_of(p):
    """The inverse permutation, read off the padded inverse row."""
    return Permutation(p.rows[1][1:])


def test_inverse_row_of_identity_is_identity():
    assert inverse_of(identity(4)) == identity(4)


def test_inverse_row_hand_case():
    assert inverse_of(perm(2, 3, 1)) == perm(3, 1, 2)


@given(permutations())
def test_inverse_row_is_involution(p):
    assert inverse_of(inverse_of(p)) == p


@given(permutations(), st.data())
def test_apply_then_inverse_row_roundtrip(p, data):
    i = data.draw(st.integers(min_value=1, max_value=p.size))
    assert inverse_of(p).apply(p.apply(i)) == i
    assert p.rows[1][p.apply(i)] == i


@given(permutations(), st.data())
def test_rows_pad_the_image_and_its_inverse(p, data):
    image, inverse = p.rows
    assert image == (0,) + p.image and len(inverse) == p.size + 1
    a = data.draw(st.integers(min_value=1, max_value=p.size))
    assert image[a] == p.apply(a) and inverse[image[a]] == a
    assert Permutation(inverse[1:]).rows == (inverse, image)


def test_rows_are_derived_once_per_object():
    p = perm(3, 1, 4, 2)
    copy_ = Permutation(p.image)
    assert p.rows is p.rows
    assert copy_.rows == p.rows and copy_.rows is not p.rows
    assert p.rows == ((0, 3, 1, 4, 2), (0, 2, 4, 1, 3))


@given(permutations())
def test_rows_change_no_identity_and_survive_a_pickle(p):
    instance = GugpInstance(2, p.size, (GugpEdge(0, 1, Fraction(1), p),))
    before = (hash(p), repr(p), hash(instance), repr(instance))
    rows = p.rows
    assert (hash(p), repr(p), hash(instance), repr(instance)) == before
    assert p == Permutation(p.image) and instance == parse(serialize(instance))
    copied_p = pickle.loads(pickle.dumps(p))
    copied = pickle.loads(pickle.dumps(instance))
    assert (copied_p, copied) == (p, instance)
    assert copied_p.rows == copied.edges[0].pi.rows == rows


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


def test_permutation_size_check_names_the_first_bad_edge_between_shared_ones():
    # one good permutation object before and after the bad edge, and a second
    # bad object later: the first edge in order that carries a bad one is named
    good, bad, worse = identity(2), identity(3), identity(4)
    edges = [
        GugpEdge(0, 1, Fraction(1), good),
        GugpEdge(1, 2, Fraction(1), good),
        GugpEdge(2, 0, Fraction(-1), bad),
        GugpEdge(0, 2, Fraction(1), good),
        GugpEdge(1, 0, Fraction(1), worse),
        GugpEdge(2, 1, Fraction(1), bad),
    ]
    with pytest.raises(ValidationError) as excinfo:
        GugpInstance(3, 2, edges)
    assert str(excinfo.value) == "edge (2,0) permutation size 3 != k=2"
    with pytest.raises(ValidationError) as excinfo:
        GugpInstance(3, 2, edges[:2] + edges[3:])
    assert str(excinfo.value) == "edge (1,0) permutation size 4 != k=2"
    assert GugpInstance(3, 2, [e for e in edges if e.pi is good]).k == 2


EDGES = [
    GugpEdge(0, 1, Fraction(-2, 3), perm(2, 1, 3)),
    RelEdge(2, 0, Fraction(5), Relation(2, 3, frozenset({(1, 3), (2, 1)}))),
    T22Edge(1, 3, Fraction(1, 2), perm(2, 1, 3, 4), perm(1, 2, 4, 3)),
]
EDGE_FIELDS = {
    GugpEdge: ("u", "v", "weight", "pi"),
    RelEdge: ("u", "v", "weight", "rel"),
    T22Edge: ("u", "v", "weight", "pi_u", "pi_v"),
}


@pytest.mark.parametrize("edge", EDGES, ids=lambda e: type(e).__name__)
def test_slotted_edges_keep_the_frozen_dataclass_protocol(edge):
    cls = type(edge)
    names = EDGE_FIELDS[cls]
    assert tuple(f.name for f in dataclasses.fields(edge)) == names
    assert not hasattr(edge, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(edge, name, getattr(edge, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(edge, name)
    values = tuple(getattr(edge, name) for name in names)
    assert cls(*values) == edge and hash(cls(*values)) == hash(edge)
    assert dataclasses.replace(edge) == edge
    assert dataclasses.replace(edge, u=4).u == 4
    with pytest.raises(ValidationError, match="self-loop at vertex 1"):
        dataclasses.replace(edge, u=1, v=1)
    plain = dataclasses.asdict(edge)
    assert list(plain) == list(names)
    nested = {
        name: type(value)(**plain[name])
        for name, value in zip(names, values)
        if dataclasses.is_dataclass(value)
    }
    assert cls(**{**plain, **nested}) == edge
    for copied in (copy.deepcopy(edge), pickle.loads(pickle.dumps(edge))):
        assert type(copied) is cls and copied == edge
        assert hash(copied) == hash(edge) and repr(copied) == repr(edge)


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


@given(st.one_of(gugp_instances(min_m=0), relational_instances(min_m=0)))
def test_metrics_is_one_object_per_instance_equal_to_the_reference(instance):
    m = metrics(instance)
    assert m == ref_metrics(instance)
    assert metrics(instance) is m
    assert metrics(parse(serialize(instance))) == m


def test_a_local_search_job_derives_its_metrics_once(monkeypatch):
    spec = GenSpec(family="random-gugp", seed=3, n=30, m=90, k=3, nwa=True)
    instance = parse(serialize(generate(spec).instance))
    built = []

    def counting(*args):
        built.append(args)
        return InstanceMetrics(*args)

    monkeypatch.setattr(core, "InstanceMetrics", counting)
    result = local_search_half(instance, seed=1)
    labeling_value(instance, result.labeling, Objective.MAX_NWA)
    assert metrics(instance) is metrics(instance)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# integer weights, derived once per instance


def test_one_instance_derives_its_integer_weights_once(monkeypatch):
    spec = GenSpec(family="random-gugp", seed=3, n=30, m=90, k=3, nwa=True)
    text = serialize(generate(spec).instance)
    calls = []

    def counting(weights):
        calls.append(len(weights))
        return scaled_weights(weights)

    # every package module that holds the name, so no reader escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("gugp_workbench") and hasattr(module, "scaled_weights"):
            monkeypatch.setattr(module, "scaled_weights", counting)
    instance = parse(text)
    result = local_search_half(instance)
    labeling_value(instance, result.labeling, Objective.MAX_NWA)
    metrics(instance)
    satisfied_weight(instance, result.labeling)
    assert calls == [90]


@given(
    st.one_of(
        gugp_instances(min_m=0),
        relational_instances(min_m=0),
    )
)
@example(GugpInstance(2, 3, ()))
@example(RelationalInstance(2, 1, 2, (), ("V", "W")))
def test_integer_weights_are_the_scaled_edge_weights_and_change_no_identity(
    instance,
):
    twin = parse(serialize(instance))
    assert twin == instance
    before = (hash(instance), repr(instance), dataclasses.asdict(instance))
    weights = instance.integer_weights
    assert weights == scaled_weights([e.weight for e in instance.edges])
    assert type(weights) is tuple and type(weights[1]) is tuple
    assert instance.integer_weights is weights
    assert (hash(instance), repr(instance), dataclasses.asdict(instance)) == before
    assert instance == twin and hash(instance) == hash(twin)
    assert parse(serialize(instance)) == instance


# ---------------------------------------------------------------------------
# the scaled-bits gate


def test_scaled_weights_refuse_one_bit_past_the_cap():
    # 4,096 weights at a 4,096-bit scale are exactly the cap; one more bit
    # of the one non-integer weight's denominator is refused
    ones = [Fraction(1)] * 4095
    assert 4096 * 4096 == SCALED_BITS_CAP
    scale, ints = scaled_weights([Fraction(1, 2**4095), *ones])
    assert (scale, ints[0], ints[1:]) == (2**4095, 1, (2**4095,) * 4095)
    with pytest.raises(CapacityError) as refused:
        scaled_weights([Fraction(1, 2**4096), *ones])
    assert str(refused.value) == (
        f"scaled weights need 4096 * 4097 bits > cap {SCALED_BITS_CAP}"
    )


def test_scaled_weights_refuse_before_the_last_denominator():
    # the scale is refused at the first denominator that takes it past the
    # cap, one of about 39 bits more than the last, far short of the product
    # of all 1,000 (about 39,000 bits)
    primes, p = [], 2**39
    while len(primes) < 1000:
        p += 1
        if all(p % q for q in range(2, 2**10)) and pow(2, p - 1, p) == 1:
            primes.append(p)
    weights = [Fraction(1, p) for p in primes]
    with pytest.raises(CapacityError) as refused:
        scaled_weights(weights)
    shape = r"scaled weights need 1000 \* (\d+) bits > cap \d+"
    bits = int(re.fullmatch(shape, str(refused.value))[1])
    assert SCALED_BITS_CAP < 1000 * bits <= SCALED_BITS_CAP + 1000 * 40
    game = GugpInstance(2, 1, tuple(GugpEdge(0, 1, w, identity(1)) for w in weights))
    with pytest.raises(CapacityError, match="scaled weights need 1000"):
        metrics(game)


def test_tour_distances_pass_the_same_gate():
    # 19,900 pair weights of n = 200, one of them over a 900-bit denominator
    weights = {(u, v): Fraction(1) for u in range(200) for v in range(u + 1, 200)}
    weights[0, 1] = Fraction(1, 2**900)
    tsp = TspInstance(200, tuple((u, v, w) for (u, v), w in weights.items()))
    with pytest.raises(CapacityError) as refused:
        tsp.distances
    assert str(refused.value) == (
        f"scaled weights need 19900 * 901 bits > cap {SCALED_BITS_CAP}"
    )
