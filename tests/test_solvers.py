"""Exhaustive solvers against independent oracles, and the local search."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    CapacityError,
    DegenerateInstanceError,
    GenSpec,
    GugpEdge,
    GugpInstance,
    InternalError,
    Objective,
    ObjectiveMismatchError,
    RelationalInstance,
    RelEdge,
    Relation,
    brute_force,
    brute_force_relational,
    check_half_guarantee,
    check_strip_bounds,
    check_value_transfer,
    generate,
    labeling_value,
    local_search_half,
    max3cut_instance,
    metrics,
    parse,
    product_coloring,
    pwt1_gadget,
    repeat_max3cut,
    serialize,
    solvers,
)

from conftest import gugp, gugp_instances, identity, perm


def oracle_optimum(inst, objective):
    """Independent route: evaluate every labeling for the objective itself
    and keep the best, preferring the lexicographically smaller labeling on
    ties."""
    maximize = objective in (
        Objective.MAX_UGP,
        Objective.MAX_PWT,
        Objective.MAX_NWA,
    )
    best = None
    best_labeling = None
    for labeling in itertools.product(range(1, inst.k + 1), repeat=inst.n):
        value = labeling_value(inst, labeling, objective)
        better = (
            best is None
            or (maximize and value > best)
            or (not maximize and value < best)
        )
        if better:
            best, best_labeling = value, labeling
    return best, best_labeling


def restated_locally_unhappy(inst, labeling):
    """Vertices seeing less than half of their incident |weight| satisfied
    in the complement reading (original edge violated)."""
    unhappy = []
    for v in range(inst.n):
        total = Fraction(0)
        good = Fraction(0)
        for e in inst.edges:
            if v not in (e.u, e.v):
                continue
            total += -e.weight
            if e.pi.image[labeling[e.u] - 1] != labeling[e.v]:
                good += -e.weight
        if 2 * good < total:
            unhappy.append(v)
    return unhappy


# ---------------------------------------------------------------------------
# brute force


def test_triangle_identity_max_ugp_tiebreak():
    inst = gugp(
        3,
        2,
        (0, 1, 1, identity(2)),
        (1, 2, 1, identity(2)),
        (2, 0, 1, identity(2)),
    )
    result = brute_force(inst, Objective.MAX_UGP)
    assert result.value == 1
    assert result.labeling == (1, 1, 1)  # (2,2,2) ties; smaller one wins
    assert result.visited == 8


def test_mixed_instance_min_pwt():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1)))
    result = brute_force(inst, Objective.MIN_PWT)
    assert result.value == Fraction(-1, 2)
    assert result.labeling == (1, 1)


def test_capacity_error_names_the_bound():
    inst = gugp(10, 3, *(((i, i + 1, 1, identity(3))) for i in range(9)))
    with pytest.raises(CapacityError, match="3\\^10"):
        brute_force(inst, Objective.MAX_UGP, cap=10**4)


@pytest.mark.parametrize("objective", [Objective.MAX_UGP, Objective.MIN_NWA])
def test_edgeless_brute_force_refuses_before_it_scans(monkeypatch, objective):
    from gugp_workbench import GugpInstance, solvers

    def no_scan(*args):
        raise AssertionError("the edgeless instance was compiled")

    monkeypatch.setattr(solvers, "_layout", no_scan)
    message = f"^{objective.value} value undefined: zero normalizer$"
    with pytest.raises(DegenerateInstanceError, match=message):
        brute_force(GugpInstance(6, 10, ()), objective)
    # the capacity check still comes first
    with pytest.raises(CapacityError, match="exceeds cap"):
        brute_force(GugpInstance(7, 10, ()), objective)


@settings(deadline=None)
@given(gugp_instances(max_n=4, max_k=3, max_m=5), st.sampled_from(list(Objective)))
def test_brute_force_matches_direct_oracle(inst, objective):
    try:
        expected_value, expected_labeling = oracle_optimum(inst, objective)
    except (ObjectiveMismatchError, DegenerateInstanceError) as veto:
        with pytest.raises(type(veto)):
            brute_force(inst, objective)
        return
    result = brute_force(inst, objective)
    assert result.value == expected_value
    assert result.labeling == expected_labeling
    assert result.visited == inst.k**inst.n


def test_max_nwa_optimum_never_exceeds_one():
    inst = gugp(
        2,
        2,
        (0, 1, -1, identity(2)),
        (0, 1, -1, perm(2, 1)),
    )
    # contradictory parallel demands: no labeling violates both edges
    result = brute_force(inst, Objective.MAX_NWA)
    assert result.value == Fraction(1, 2)


# ---------------------------------------------------------------------------
# relational brute force


def test_max3cut_k3_is_colorable():
    inst = max3cut_instance(3, ((0, 1), (1, 2), (2, 0)))
    result = brute_force_relational(inst)
    assert result.value == 1
    assert result.labeling == (1, 2, 3)


def test_max3cut_k4_value():
    pairs = tuple(
        (u, v) for u in range(4) for v in range(u + 1, 4)
    )
    result = brute_force_relational(max3cut_instance(4, pairs))
    assert result.value == Fraction(5, 6)


def test_repeated_k3_proper_coloring_is_optimal():
    # 9^9 labelings is out of enumeration reach, so certify the optimum by
    # witness + upper bound: a lifted proper coloring satisfies everything
    # and no labeling can beat satisfying everything.
    repeated = repeat_max3cut(3, ((0, 1), (1, 2), (2, 0)), 2)
    inst = repeated.to_relational()
    witness = product_coloring((1, 2, 3), 2)
    assert labeling_value(inst, witness, Objective.MAX_UGP) == 1
    with pytest.raises(CapacityError):
        brute_force_relational(inst)


def test_relational_capacity_message():
    inst = max3cut_instance(3, ((0, 1),))
    with pytest.raises(CapacityError, match="exceeds cap"):
        brute_force_relational(inst, cap=2)


def _one_label_scans():
    """Each exhaustive scan over six vertices whose label space is at most 2,
    so a cap of 5 is exceeded by the vertex count alone."""
    one = GugpInstance(6, 1, (GugpEdge(0, 1, Fraction(1), identity(1)),))
    yield pytest.param(lambda cap: brute_force(one, Objective.MAX_UGP, cap), id="gugp")
    yield pytest.param(lambda cap: check_strip_bounds(one, cap), id="strip-bounds")
    edge = RelEdge(0, 1, Fraction(1), Relation(1, 1, ((1, 1),)))
    shared = RelationalInstance(6, 1, 1, (edge,))
    yield pytest.param(lambda cap: brute_force_relational(shared, cap), id="rel")
    # bipartite: one label on the five V vertices, two on the W vertex
    edge = RelEdge(0, 5, Fraction(1), Relation(1, 2, ((1, 2),)))
    bipartite = RelationalInstance(6, 1, 2, (edge,), ("V",) * 5 + ("W",))
    yield pytest.param(
        lambda cap: brute_force_relational(bipartite, cap), id="rel-bipartite"
    )


@pytest.mark.parametrize("scan", list(_one_label_scans()))
def test_one_label_scans_run_up_to_a_vertex_count_equal_to_the_cap(scan):
    scan(6)  # n = cap completes
    with pytest.raises(CapacityError, match=r"^vertex count 6 exceeds cap 5$"):
        scan(5)
    # the label space is refused first, with its own message
    with pytest.raises(CapacityError, match=r"^label space .* exceeds cap 0$"):
        scan(0)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_relational_brute_tiebreak_is_lexicographic(seed):
    # any single-edge instance: maximum ties across many labelings; the
    # reported winner must be the lexicographically first optimum
    inst = max3cut_instance(2, ((0, 1),))
    result = brute_force_relational(inst)
    assert result.labeling == (1, 2)
    assert result.value == 1


# ---------------------------------------------------------------------------
# local search


def test_hand_traced_flip():
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    result = local_search_half(inst)
    # all-1 start leaves the identity edge satisfied (bad in complement
    # reading); vertex 0 flips to label 2
    assert result.labeling == (2, 1)
    assert result.value == 1
    assert result.visited == 1


def test_zero_iterations_when_start_is_happy():
    inst = gugp(2, 2, (0, 1, -1, perm(2, 1)))
    result = local_search_half(inst)
    # all-1 start already violates the swap edge; nothing to do
    assert result.labeling == (1, 1)
    assert result.value == 1
    assert result.visited == 0


def test_positive_weight_rejected():
    inst = gugp(2, 2, (0, 1, 1, identity(2)))
    with pytest.raises(ObjectiveMismatchError):
        local_search_half(inst)


def test_single_label_rejected():
    inst = gugp(2, 1, (0, 1, -1, identity(1)))
    with pytest.raises(DegenerateInstanceError):
        local_search_half(inst)


def test_edgeless_rejected():
    from gugp_workbench import GugpInstance

    with pytest.raises(DegenerateInstanceError):
        local_search_half(GugpInstance(2, 2, ()))


def test_iteration_cap_signals_internal_error():
    # the path needs two moves; weights of -1/2 break the integer premise and
    # bound the steps by their sum, 1
    inst = gugp(3, 2, (0, 1, -1, identity(2)), (1, 2, -1, identity(2)))
    inst.__dict__["integer_weights"] = (1, (Fraction(-1, 2),) * 2)
    with pytest.raises(InternalError, match=r"^local search exceeded iteration cap 1;"):
        local_search_half(inst)


def test_vertex_cap_refuses_before_any_per_vertex_list(monkeypatch):
    from gugp_workbench import GugpEdge, GugpInstance, solvers

    monkeypatch.setattr(solvers, "LOCAL_SEARCH_VERTEX_CAP", 5)
    edge = GugpEdge(0, 1, Fraction(-1), identity(2))
    assert local_search_half(GugpInstance(5, 2, (edge,))).labeling == (2, 1, 1, 1, 1)
    with pytest.raises(CapacityError, match=r"^vertex count 6 exceeds cap 5$"):
        local_search_half(GugpInstance(6, 2, (edge,)))
    # the objective and label-count checks still come first
    with pytest.raises(DegenerateInstanceError):
        local_search_half(GugpInstance(6, 1, (GugpEdge(0, 1, -1, identity(1)),)))


def test_non_improving_step_signals_internal_error(monkeypatch):
    from gugp_workbench import solvers

    # the move choice keeps the mover's label 1, which cannot improve
    monkeypatch.setattr(solvers, "min", lambda labels, key: 1, raising=False)
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    with pytest.raises(
        InternalError, match=r"^local search step failed to improve globally$"
    ):
        local_search_half(inst)


def test_value_below_half_signals_internal_error(monkeypatch):
    from gugp_workbench import solvers

    monkeypatch.setattr(solvers, "labeling_value", lambda *args: Fraction(1, 3))
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    with pytest.raises(
        InternalError, match=r"^local search ended below the 1/2 guarantee: 1/3$"
    ):
        local_search_half(inst)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_value_of_exactly_half_is_accepted(seed):
    # whatever the labels, one of the two parallel edges holds: every start
    # is already locally happy and ends at exactly 1/2
    inst = gugp(2, 2, (0, 1, -1, identity(2)), (0, 1, -1, perm(2, 1)))
    result = local_search_half(inst, seed=seed)
    assert (result.value, result.visited) == (Fraction(1, 2), 0)


def test_seeded_start_is_reproducible():
    inst = gugp(
        4,
        3,
        (0, 1, -1, identity(3)),
        (1, 2, Fraction(-1, 2), perm(2, 3, 1)),
        (2, 3, Fraction(-2, 7), perm(3, 1, 2)),
        (3, 0, -3, identity(3)),
    )
    a = local_search_half(inst, seed=99)
    b = local_search_half(inst, seed=99)
    assert a == b
    c = local_search_half(inst)
    assert c.value >= Fraction(1, 2)


@settings(deadline=None, max_examples=60)
@given(gugp_instances(signs="negative", max_n=5, max_k=4, max_m=8, min_k=2))
def test_local_search_guarantee_and_termination(inst):
    result = local_search_half(inst)
    # guarantee: at least half of all |weight| is violated in the original
    # reading, i.e. MAX_NWA value >= 1/2
    assert result.value >= Fraction(1, 2)
    # the returned labeling leaves no locally-unhappy vertex (independent
    # recomputation)
    assert restated_locally_unhappy(inst, result.labeling) == []
    # never better than the true optimum
    optimum = brute_force(inst, Objective.MAX_NWA)
    assert result.value <= optimum.value
    assert result.value >= optimum.value / 2


# ---------------------------------------------------------------------------
# the compiled scan: built once per game and table set, then only read


def count_compiles(monkeypatch):
    """Record each layout and the weights of each plan that ``solvers``
    compiles."""
    built = []
    real_layout, real_plan = solvers._layout, solvers._plan

    def layout(domains, weights):
        built.append("layout")
        return real_layout(domains, weights)

    def plan(layout, edges, weights):
        built.append(tuple(weights))
        return real_plan(layout, edges, weights)

    monkeypatch.setattr(solvers, "_layout", layout)
    monkeypatch.setattr(solvers, "_plan", plan)
    return built


def random_game(seed, **signs):
    """A 6-vertex, 3-label game: 729 labelings, past one block."""
    spec = GenSpec(family="random-gugp", seed=seed, n=6, m=12, k=3, **signs)
    return generate(spec).instance


def test_strip_bounds_reuses_the_brute_force_scan(monkeypatch):
    instance = random_game(5, max_ratio=Fraction(1, 2))
    built = count_compiles(monkeypatch)
    first = brute_force(instance, Objective.MIN_PWT)
    assert check_strip_bounds(instance).passed
    assert brute_force(instance, Objective.MIN_PWT) == first
    weights = instance.integer_weights[1]
    assert min(weights) < 0
    assert built == ["layout", weights, tuple(max(w, 0) for w in weights)]


def test_value_transfer_compiles_the_source_and_the_gadget_once_each(monkeypatch):
    repeated = repeat_max3cut(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), 1)
    source = repeated.to_relational()
    gadget, _ = pwt1_gadget(repeated)
    built = count_compiles(monkeypatch)
    first = brute_force_relational(source)
    assert brute_force_relational(source) == first
    assert check_value_transfer(source, gadget).passed
    weights = (source.integer_weights[1], gadget.integer_weights[1])
    assert built == ["layout", weights[0], "layout", weights[1]]


def test_parse_metrics_values_and_local_search_compile_no_scan(monkeypatch):
    spec = GenSpec(family="random-gugp", seed=3, n=30, m=90, k=3, nwa=True)
    text = serialize(generate(spec).instance)
    built = count_compiles(monkeypatch)
    instance = parse(text)
    result = local_search_half(instance)
    labeling_value(instance, result.labeling, Objective.MAX_NWA)
    metrics(instance)
    assert built == [] and "compiled_scans" not in vars(instance)


def unpacked_rows(instance):
    """Per held plan, the scores of its block row and of that row plus each
    offset, unpacked from their lanes."""
    layout = instance.compiled_scans["layout"]

    def scores(row):
        return [lane - layout.bias for lane in layout.lanes(row)]

    return {
        key: [scores(plan.block_row)]
        + [scores(plan.block_row + row) for by in plan.cross.values() for row in by.values()]
        for key, plan in instance.compiled_scans.items()
        if key != "layout"
    }


@pytest.mark.parametrize(
    "signs, scans",
    [
        (
            {"max_ratio": Fraction(0)},
            [Objective.MAX_UGP, Objective.MIN_PWT, check_strip_bounds]
            + [Objective.MIN_UGP, Objective.MAX_PWT],
        ),
        (
            {"max_ratio": Fraction(1, 2)},
            [Objective.MAX_PWT, check_strip_bounds, Objective.MIN_PWT],
        ),
        ({"nwa": True}, [Objective.MIN_NWA, check_half_guarantee, Objective.MAX_NWA]),
    ],
)
def test_a_held_scan_is_only_read(signs, scans):
    text = serialize(random_game(7, **signs))

    def run(scan, instance):
        if isinstance(scan, Objective):
            return brute_force(instance, scan)
        return scan(instance)

    instance = parse(text)
    shown = hash(instance), repr(instance)
    assert run(scans[0], instance) == run(scans[0], parse(text))
    first = unpacked_rows(instance)
    # each scan twice, in both orders, against a game that never scanned
    for scan in scans + scans[::-1]:
        assert run(scan, instance) == run(scan, parse(text))
    # one layout and one plan per table set, each under its named key
    held = {"layout": solvers.Layout, "all": solvers.Plan}
    if check_strip_bounds in scans:
        held["positive"] = solvers.Plan
    assert {key: type(value) for key, value in instance.compiled_scans.items()} == held
    later = unpacked_rows(instance)
    assert {key: later[key] for key in first} == first
    assert instance == parse(text)
    assert (hash(instance), repr(instance)) == shown
    copy = dataclasses.replace(instance, edges=instance.edges[1:])
    assert run(scans[0], copy) == run(scans[0], parse(serialize(copy)))
    assert copy.compiled_scans is not instance.compiled_scans
