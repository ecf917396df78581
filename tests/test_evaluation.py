"""Satisfied/unsatisfied weights and the six normalized objectives."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gugp_workbench import (
    DegenerateInstanceError,
    GugpEdge,
    GugpInstance,
    Objective,
    ObjectiveMismatchError,
    RelEdge,
    Relation,
    RelationalInstance,
    ValidationError,
    check_labeling,
    labeling_value,
    max3cut_instance,
    metrics,
    pwt1_gadget,
    repeat_max3cut,
    satisfied_weight,
    unsatisfied_weight,
)
from gugp_workbench.evaluation import objective_normalizer

from conftest import gugp, gugp_instances, identity, labelings_for, perm


def oracle_satisfied(inst, labeling):
    """Independent route: check each edge with explicit permutation lookup."""
    total = Fraction(0)
    for e in inst.edges:
        if e.pi.image[labeling[e.u] - 1] == labeling[e.v]:
            total += e.weight
    return total


# ---------------------------------------------------------------------------
# satisfied / unsatisfied weight


def test_single_identity_edge_satisfied():
    inst = gugp(2, 2, (0, 1, 1, identity(2)))
    assert satisfied_weight(inst, (1, 1)) == 1
    assert unsatisfied_weight(inst, (1, 1)) == 0


def test_single_identity_edge_violated():
    inst = gugp(2, 2, (0, 1, 1, identity(2)))
    assert satisfied_weight(inst, (1, 2)) == 0
    assert unsatisfied_weight(inst, (1, 2)) == 1


def test_unit_gadget_bundle_weights():
    # one base edge expanded into three parallel edges: the satisfied edge
    # under equal labels carries -1/2, under shifted labels +1/2
    gadget, _ = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 1))
    assert satisfied_weight(gadget, (1, 2)) == Fraction(1, 2)
    assert unsatisfied_weight(gadget, (1, 2)) == 0
    assert unsatisfied_weight(gadget, (1, 1)) == 1


def test_labels_out_of_range_rejected():
    inst = gugp(2, 2, (0, 1, 1, identity(2)))
    with pytest.raises(ValidationError):
        check_labeling(inst, (1, 3))
    with pytest.raises(ValidationError):
        check_labeling(inst, (0, 1))
    with pytest.raises(ValidationError):
        check_labeling(inst, (1,))


@given(gugp_instances(), st.data())
def test_sat_plus_unsat_is_total(inst, data):
    labeling = data.draw(labelings_for(inst.n, inst.k))
    total = sum((e.weight for e in inst.edges), Fraction(0))
    assert satisfied_weight(inst, labeling) + unsatisfied_weight(
        inst, labeling
    ) == total


@given(gugp_instances(), st.data())
def test_satisfied_weight_matches_oracle(inst, data):
    labeling = data.draw(labelings_for(inst.n, inst.k))
    assert satisfied_weight(inst, labeling) == oracle_satisfied(inst, labeling)


# ---------------------------------------------------------------------------
# objectives


def test_all_positive_triangle_max_ugp():
    inst = gugp(
        3,
        2,
        (0, 1, 1, identity(2)),
        (1, 2, 1, identity(2)),
        (2, 0, 1, identity(2)),
    )
    assert labeling_value(inst, (1, 1, 1), Objective.MAX_UGP) == 1
    assert labeling_value(inst, (1, 1, 1), Objective.MIN_UGP) == 0


def test_single_negative_edge_max_nwa():
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    assert labeling_value(inst, (1, 2), Objective.MAX_NWA) == 1
    assert labeling_value(inst, (1, 2), Objective.MIN_NWA) == 0


def test_mixed_instance_min_pwt_hand_value():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1)))
    assert labeling_value(inst, (1, 1), Objective.MIN_PWT) == Fraction(-1, 2)
    assert labeling_value(inst, (1, 1), Objective.MAX_PWT) == Fraction(3, 2)


def test_pwt_values_can_leave_unit_interval():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1)))
    value = labeling_value(inst, (1, 2), Objective.MAX_PWT)
    assert value == Fraction(-1, 2)  # negative satisfied weight over sigma


def test_objective_sign_preconditions():
    positive = gugp(2, 2, (0, 1, 1, identity(2)))
    negative = gugp(2, 2, (0, 1, -1, identity(2)))
    mixed = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, -2, identity(2)))
    for obj in (Objective.MAX_UGP, Objective.MIN_UGP):
        with pytest.raises(ObjectiveMismatchError):
            labeling_value(negative, (1, 1), obj)
    for obj in (Objective.MAX_NWA, Objective.MIN_NWA):
        with pytest.raises(ObjectiveMismatchError):
            labeling_value(positive, (1, 1), obj)
    for obj in (Objective.MAX_PWT, Objective.MIN_PWT):
        # mixed has sigma = -1 < 0
        with pytest.raises(ObjectiveMismatchError):
            labeling_value(mixed, (1, 1), obj)


def test_degenerate_normalizers():
    # an instance cannot have literally zero total weight with UGP (all
    # positive) but a PWT check on sigma=0 still needs a guard; build one
    # with equal positive and negative weight
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, -1, perm(2, 1)))
    with pytest.raises(ObjectiveMismatchError):
        labeling_value(inst, (1, 1), Objective.MIN_PWT)



NWA_OBJECTIVES = (Objective.MAX_NWA, Objective.MIN_NWA)


@pytest.mark.parametrize("objective", list(Objective))
def test_objective_normalizer_per_objective(objective):
    # every objective divides by sigma: 3 - 1 = 2 on the mixed game, and the
    # negative -3 - 1 = -4 on the all-negative game NWA requires
    if objective in NWA_OBJECTIVES:
        weights, expected = (-3, -1), -4
    else:
        weights, expected = (3, -1), 2
    edges = ((0, 1, weights[0], identity(2)), (0, 1, weights[1], perm(2, 1)))
    m = metrics(gugp(2, 2, *edges))
    assert objective_normalizer(m, objective) == expected


@pytest.mark.parametrize("objective", list(Objective))
def test_objective_normalizer_refuses_zero(objective):
    m = metrics(gugp(3, 2))
    message = f"^{objective.value} value undefined: zero normalizer$"
    with pytest.raises(DegenerateInstanceError, match=message):
        objective_normalizer(m, objective)

@given(gugp_instances(signs="positive"), st.data())
def test_ugp_max_plus_min_is_one(inst, data):
    labeling = data.draw(labelings_for(inst.n, inst.k))
    a = labeling_value(inst, labeling, Objective.MAX_UGP)
    b = labeling_value(inst, labeling, Objective.MIN_UGP)
    assert a + b == 1


@given(gugp_instances(signs="negative"), st.data())
def test_nwa_max_plus_min_is_one(inst, data):
    labeling = data.draw(labelings_for(inst.n, inst.k))
    a = labeling_value(inst, labeling, Objective.MAX_NWA)
    b = labeling_value(inst, labeling, Objective.MIN_NWA)
    assert a + b == 1


@given(gugp_instances(), st.data())
def test_pwt_max_plus_min_is_one(inst, data):
    if metrics(inst).sigma <= 0:
        return
    labeling = data.draw(labelings_for(inst.n, inst.k))
    a = labeling_value(inst, labeling, Objective.MAX_PWT)
    b = labeling_value(inst, labeling, Objective.MIN_PWT)
    assert a + b == 1


# ---------------------------------------------------------------------------
# relational evaluation


def test_max3cut_triangle_proper_coloring():
    inst = max3cut_instance(3, ((0, 1), (1, 2), (2, 0)))
    assert satisfied_weight(inst, (1, 2, 3)) == 3
    assert labeling_value(inst, (1, 2, 3), Objective.MAX_UGP) == 1


def test_max3cut_constant_coloring():
    inst = max3cut_instance(3, ((0, 1), (1, 2), (2, 0)))
    assert satisfied_weight(inst, (1, 1, 1)) == 0


def test_complement_edge_satisfied_by_differing_labels():
    rel = Relation(2, 2, frozenset({(1, 2), (2, 1)}))  # labels differ
    inst = RelationalInstance(
        2, 2, 2, (RelEdge(0, 1, Fraction(5, 7), rel),)
    )
    assert satisfied_weight(inst, (1, 2)) == Fraction(5, 7)
    assert satisfied_weight(inst, (1, 1)) == 0


def test_bipartite_labeling_ranges():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    inst = RelationalInstance(
        2,
        4,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    assert satisfied_weight(inst, (4, 2)) == 1
    with pytest.raises(ValidationError):
        satisfied_weight(inst, (1, 4))  # 4 > k2 on the W side
