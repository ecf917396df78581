"""Exhaustive machine checks: bundle structure, metric closed forms, value
transfer, strip sandwich, local-search guarantee, tour equivalence, and the
merge-fraction measure."""

import dataclasses
import itertools
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    BundleMap,
    CapacityError,
    GenSpec,
    GugpEdge,
    GugpInstance,
    ObjectiveMismatchError,
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
    VerifyReport,
    check_bundle_exactly_one,
    check_gadget_metrics,
    check_half_guarantee,
    check_indicator_weights,
    check_strip_bounds,
    check_tsp_equivalence,
    check_value_transfer,
    coordinate_collision_predicate,
    exhaustive_tsp_optimum,
    generate,
    isolated_left_vertices,
    pair_block_predicate,
    pwt1_gadget,
    repeat_max3cut,
    serialize,
    smoothness,
    tour_weight,
    two2two_relation,
    two2two_to_pwt_half,
)

from gugp_workbench import cli, verification

from conftest import gugp, identity, perm, permutations


def triangle_pairs():
    return ((0, 1), (1, 2), (2, 0))


def k4_pairs():
    return tuple((u, v) for u in range(4) for v in range(u + 1, 4))


def triangle_gadget():
    return pwt1_gadget(repeat_max3cut(3, triangle_pairs(), 1))


def random_t22(seed, n=2, m=1, k=2):
    rng = SplitMix64(seed)
    edges = []
    for _ in range(m):
        u = rng.below(n)
        v = (u + 1 + rng.below(n - 1)) % n
        pu = list(range(1, 2 * k + 1))
        pv = list(range(1, 2 * k + 1))
        rng.shuffle(pu)
        rng.shuffle(pv)
        edges.append(
            T22Edge(u, v, Fraction(1), Permutation(tuple(pu)), Permutation(tuple(pv)))
        )
    return TwoToTwoInstance(n, k, tuple(edges))


# ---------------------------------------------------------------------------
# report plumbing


def test_report_verdict_consistency():
    # the verdict is read off the witnesses, which are kept up to the limit
    clean = VerifyReport("x", 1, [], iter(["NOTE"]))
    assert (clean.passed, clean.verdict, clean.notes) == (True, "PASS", ("NOTE",))
    many = ((i, (1, 1), 1, 2) for i in range(60))
    failing = VerifyReport("x", 1, many)
    assert (failing.passed, failing.verdict) == (False, "FAIL")
    assert failing.witnesses == tuple((i, (1, 1), 1, 2) for i in range(50))


# ---------------------------------------------------------------------------
# exactly-one coverage


def test_exactly_one_triangle_gadget():
    gadget, bundles = triangle_gadget()
    report = check_bundle_exactly_one(gadget, bundles)
    assert report.passed
    assert report.cases == 3 * 9  # three bundles, nine label pairs each


@given(permutations(k=4), permutations(k=4))
def test_exactly_one_block_gadget(pu, pv):
    source = TwoToTwoInstance(
        2, 2, (T22Edge(0, 1, Fraction(1), pu, pv),)
    )
    gadget, bundles = two2two_to_pwt_half(source)
    report = check_bundle_exactly_one(gadget, bundles)
    assert report.passed
    assert report.cases == 16


def test_exactly_one_fails_on_duplicate_identity_edges():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, 1, identity(2)))
    report = check_bundle_exactly_one(inst, BundleMap(1, 2))
    assert report.verdict == "FAIL"
    # diagonal pairs are satisfied twice, off-diagonal zero times
    assert len(report.witnesses) == 4
    assert report.witnesses[0] == (0, (1, 1), 1, 2)
    assert report.witnesses[1] == (0, (1, 2), 1, 0)


def test_exactly_one_witnesses_are_sorted():
    inst = gugp(
        2,
        2,
        (0, 1, 1, identity(2)),
        (0, 1, 1, identity(2)),
        (0, 1, 1, perm(2, 1)),
        (0, 1, 1, perm(2, 1)),
    )
    report = check_bundle_exactly_one(inst, BundleMap(2, 2))
    assert report.verdict == "FAIL"
    assert list(report.witnesses) == sorted(report.witnesses, key=lambda w: (w[0], w[1]))


def test_exactly_one_capacity():
    gadget, bundles = triangle_gadget()
    with pytest.raises(CapacityError):
        check_bundle_exactly_one(gadget, bundles, case_cap=5)


@pytest.mark.parametrize(
    "check",
    [
        check_bundle_exactly_one,
        lambda g, b, case_cap: check_indicator_weights(
            g, b, coordinate_collision_predicate(1), case_cap=case_cap
        ),
    ],
)
def test_bundle_cap_counts_looks_performed(check):
    # 3 bundles of 3 edges on 3 labels: 3 * 3 looks to fill each bundle's
    # table plus 3 * 3 to read it, 54 in all (not 3 * 3 * 3 per bundle, 81)
    gadget, bundles = triangle_gadget()
    assert check(gadget, bundles, case_cap=60).passed
    assert check(gadget, bundles, case_cap=54).passed
    with pytest.raises(CapacityError, match="needs 54 edge looks > cap 53"):
        check(gadget, bundles, case_cap=53)


def test_exactly_one_fits_fold3_readme_gadget_at_default_cap():
    # the README base squared to fold 3: 864 bundles of 27 edges on 27
    # labels need 864 * (27 * 27 + 27 * 27) looks, well under the default cap
    base = generate(
        GenSpec(family="planted-3col", seed=7, n=5, m=6)
    ).instance
    pairs = tuple((e.u, e.v) for e in base.edges)
    gadget, bundles = pwt1_gadget(repeat_max3cut(base.n, pairs, 3))
    report = check_bundle_exactly_one(gadget, bundles)
    assert report.passed
    assert report.cases == 864 * 27 * 27
    with pytest.raises(CapacityError, match="needs 1259712 edge looks"):
        check_bundle_exactly_one(gadget, bundles, case_cap=1_259_711)


def fold3_readme_gadget():
    base = generate(GenSpec(family="planted-3col", seed=7, n=5, m=6)).instance
    pairs = tuple((e.u, e.v) for e in base.edges)
    return pwt1_gadget(repeat_max3cut(base.n, pairs, 3))


def repeat_second_permutation(gadget, bundles):
    # every bundle's first edge takes the second edge's permutation
    edges = list(gadget.edges)
    for start in range(0, len(edges), bundles.size):
        e = edges[start]
        edges[start] = GugpEdge(e.u, e.v, e.weight, edges[start + 1].pi)
    return GugpInstance(gadget.n, gadget.k, tuple(edges))


def test_failing_bundle_checks_hold_only_the_reported_witnesses():
    gadget, bundles = fold3_readme_gadget()
    broken = repeat_second_permutation(gadget, bundles)
    wrong = coordinate_collision_predicate(4)
    gadget.integer_weights  # derived outside the measured window
    for check in (
        # every one of the 864 bundles fails at 54 label pairs
        lambda: check_bundle_exactly_one(broken, bundles),
        # the fold-4 relation is wrong at every one of the 629,856 label pairs
        lambda: check_indicator_weights(gadget, bundles, wrong),
    ):
        tracemalloc.start()
        try:
            report = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "FAIL"
        assert len(report.witnesses) == verification.MAX_RECORDED_WITNESSES
        assert report.cases == 864 * 27 * 27
        # a 23,328-edge weight tuple and a few 28 x 28 tables, not every witness
        assert peak < 2**20


def test_bundles_must_match_gadget():
    gadget, _ = triangle_gadget()
    with pytest.raises(ValidationError, match="cover"):
        check_bundle_exactly_one(gadget, BundleMap(2, 3))


@pytest.mark.parametrize(
    "check",
    [
        check_bundle_exactly_one,
        lambda g, b: check_indicator_weights(g, b, coordinate_collision_predicate(1)),
    ],
)
def test_bundle_of_two_vertex_pairs_is_refused(check):
    # bundle 0 is sound; bundle 1 holds an edge (1,2) and an edge (2,1)
    inst = gugp(
        3,
        2,
        (0, 1, 1, identity(2)),
        (0, 1, 1, perm(2, 1)),
        (1, 2, 1, identity(2)),
        (2, 1, 1, perm(2, 1)),
    )
    with pytest.raises(ValidationError) as refused:
        check(inst, BundleMap(2, 2))
    assert str(refused.value) == "bundle 1 mixes edges of different vertex pairs"


# ---------------------------------------------------------------------------
# 0/1 indicator


def test_indicator_triangle_gadget():
    gadget, bundles = triangle_gadget()
    report = check_indicator_weights(
        gadget, bundles, coordinate_collision_predicate(1)
    )
    assert report.passed


def test_indicator_fold2():
    gadget, bundles = pwt1_gadget(repeat_max3cut(2, ((0, 1),), 2))
    report = check_indicator_weights(
        gadget, bundles, coordinate_collision_predicate(2)
    )
    assert report.passed
    assert report.cases == 2 * 81


@given(st.integers(min_value=0, max_value=2**32))
def test_indicator_block_gadget(seed):
    source = random_t22(seed)
    gadget, bundles = two2two_to_pwt_half(source)
    report = check_indicator_weights(gadget, bundles, pair_block_predicate(source))
    assert report.passed


def test_indicator_refuses_a_source_of_another_edge_count():
    source = generate(GenSpec("random-t22", seed=2, n=4, m=3, k=2)).instance
    first_two = TwoToTwoInstance(source.n, source.k, source.edges[:2])
    gadget, bundles = two2two_to_pwt_half(source)
    with pytest.raises(
        ValidationError, match=r"^gadget has 3 bundles but the source has 2 edges$"
    ):
        check_indicator_weights(gadget, bundles, pair_block_predicate(first_two))
    gadget, bundles = two2two_to_pwt_half(first_two)
    with pytest.raises(
        ValidationError, match=r"^gadget has 2 bundles but the source has 3 edges$"
    ):
        check_indicator_weights(gadget, bundles, pair_block_predicate(source))


def test_pair_block_predicate_shares_the_unit_relational_relations():
    source = generate(GenSpec("random-t22", seed=4, n=5, m=9, k=3)).instance
    relation_of = pair_block_predicate(source)
    unit = source.to_unit_relational()
    assert len(relation_of) == len(unit.edges) == 9
    for i, e in enumerate(unit.edges):
        assert relation_of[i] is e.rel


def test_verify_pwt_half_derives_each_source_relation_once(monkeypatch, tmp_path):
    source = generate(
        GenSpec("random-t22", seed=1, n=6, m=8, k=2, satisfiable=True)
    ).instance
    gadget, _ = two2two_to_pwt_half(source)
    gadget_path, source_path = tmp_path / "half.gugp", tmp_path / "source.t22"
    gadget_path.write_text(serialize(gadget))
    source_path.write_text(serialize(source))
    calls = []

    def counting(pi_u, pi_v):
        calls.append(None)
        return two2two_relation(pi_u, pi_v)

    # every package module that holds the name, so no caller escapes the count
    for name, module in list(sys.modules.items()):
        if name.startswith("gugp_workbench") and hasattr(module, "two2two_relation"):
            monkeypatch.setattr(module, "two2two_relation", counting)
    argv = ["verify", "gadget-pwt-half", "--in", str(gadget_path)]
    assert cli.main(argv + ["--source", str(source_path)]) == 0
    assert len(calls) == len(source.edges) == 8


def test_indicator_fails_on_perturbed_weight():
    gadget, bundles = triangle_gadget()
    edges = list(gadget.edges)
    edges[0] = GugpEdge(edges[0].u, edges[0].v, Fraction(-2, 3), edges[0].pi)
    broken = GugpInstance(gadget.n, gadget.k, tuple(edges))
    report = check_indicator_weights(
        broken, bundles, coordinate_collision_predicate(1)
    )
    assert report.verdict == "FAIL"
    assert report.witnesses
    bundle, labels, expected, actual = report.witnesses[0]
    assert bundle == 0
    assert expected in (0, 1)
    assert actual != expected


# ---------------------------------------------------------------------------
# closed-form metrics


def test_metrics_closed_form_fold1_triangle():
    gadget, _ = triangle_gadget()
    report = check_gadget_metrics(gadget, "pwt1", 1, 3)
    assert report.passed
    m = __import__("gugp_workbench").metrics(gadget)
    assert m.sigma == Fraction(3, 2)
    assert m.ratio == Fraction(1, 2)


def test_metrics_closed_form_fold2():
    gadget, _ = pwt1_gadget(repeat_max3cut(3, triangle_pairs(), 2))
    report = check_gadget_metrics(gadget, "pwt1", 2, 18)
    assert report.passed
    m = __import__("gugp_workbench").metrics(gadget)
    assert m.sigma == Fraction(45, 4)
    assert m.ratio == Fraction(3, 4)


def test_metrics_closed_form_block_k3():
    source = TwoToTwoInstance(
        3,
        3,
        (
            T22Edge(0, 1, Fraction(1), identity(6), identity(6)),
            T22Edge(1, 2, Fraction(1), identity(6), identity(6)),
        ),
    )
    gadget, _ = two2two_to_pwt_half(source)
    report = check_gadget_metrics(gadget, "pwt-half", 3, 2)
    assert report.passed
    m = __import__("gugp_workbench").metrics(gadget)
    assert m.sigma == Fraction(8, 5)
    assert m.ratio == Fraction(1, 2)


def test_metrics_unknown_family():
    gadget, _ = triangle_gadget()
    with pytest.raises(UsageError):
        check_gadget_metrics(gadget, "nonsense", 1, 3)


def test_metrics_fails_on_wrong_source_count():
    gadget, _ = triangle_gadget()
    report = check_gadget_metrics(gadget, "pwt1", 1, 4)
    assert report.verdict == "FAIL"
    assert report.witnesses


# ---------------------------------------------------------------------------
# value transfer


def test_value_transfer_triangle():
    repeated = repeat_max3cut(3, triangle_pairs(), 1)
    gadget, _ = pwt1_gadget(repeated)
    report = check_value_transfer(repeated.to_relational(), gadget)
    assert report.passed
    assert "SOURCE_OPTIMUM=1/1" in report.notes
    assert "GADGET_MIN_PWT=0/1" in report.notes


def test_value_transfer_single_edge():
    repeated = repeat_max3cut(2, ((0, 1),), 1)
    gadget, _ = pwt1_gadget(repeated)
    report = check_value_transfer(repeated.to_relational(), gadget)
    assert report.passed
    assert "GADGET_MIN_PWT=0/1" in report.notes


# odd wheel W5: hub 0, rim cycle 1..5
WHEEL5_PAIRS = tuple((0, v) for v in range(1, 6)) + tuple(
    (v, v % 5 + 1) for v in range(1, 6)
)
MOSER_SPINDLE_PAIRS = (
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4),
    (0, 5), (4, 5), (4, 6), (5, 6), (3, 6),
)


def fold1_pwt1(n, pairs):
    repeated = repeat_max3cut(n, pairs, 1)
    return repeated.to_relational(), pwt1_gadget(repeated)[0]


def unplanted_t22_pwt_half():
    spec = GenSpec("random-t22", seed=3, n=5, m=6, k=2)
    source = generate(spec).instance
    return source.to_unit_relational(), two2two_to_pwt_half(source)[0]


# sources that no labeling satisfies, so the gadget minimum is positive
@pytest.mark.parametrize(
    "build, optimum, gadget_min, cases",
    [
        (lambda: fold1_pwt1(4, k4_pairs()), "5/6", "1/3", 162),
        (lambda: fold1_pwt1(6, WHEEL5_PAIRS), "9/10", "1/5", 1_458),
        (lambda: fold1_pwt1(7, MOSER_SPINDLE_PAIRS), "10/11", "2/11", 4_374),
        (unplanted_t22_pwt_half, "5/6", "1/4", 2_048),
    ],
    ids=["k4", "odd-wheel-w5", "moser-spindle", "random-t22-seed3"],
)
def test_value_transfer_unsatisfiable(build, optimum, gadget_min, cases):
    source, gadget = build()
    report = check_value_transfer(source, gadget)
    assert report.passed
    assert f"SOURCE_OPTIMUM={optimum}" in report.notes
    assert f"GADGET_MIN_PWT={gadget_min}" in report.notes
    assert report.cases == cases


def test_value_transfer_block_gadget_with_conflict():
    # two contradictory constraints on the same pair: at most one can hold
    source = TwoToTwoInstance(
        2,
        2,
        (
            T22Edge(0, 1, Fraction(1), identity(4), identity(4)),
            T22Edge(0, 1, Fraction(1), rotationless_shift(), identity(4)),
        ),
    )
    gadget, _ = two2two_to_pwt_half(source)
    report = check_value_transfer(source.to_unit_relational(), gadget)
    assert report.passed


def rotationless_shift():
    # maps blocks {1,2} <-> {3,4} so its block relation contradicts identity
    return Permutation((3, 4, 1, 2))


def test_value_transfer_capacity():
    repeated = repeat_max3cut(3, triangle_pairs(), 1)
    gadget, _ = pwt1_gadget(repeated)
    with pytest.raises(CapacityError):
        check_value_transfer(repeated.to_relational(), gadget, cap=10)


# ---------------------------------------------------------------------------
# strip sandwich


def counterexample_instance():
    return gugp(
        2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1))
    )


def test_strip_counterexample_notes():
    report = check_strip_bounds(counterexample_instance())
    assert report.passed  # the weight-level sandwich itself holds
    notes = dict(
        note.split("=", 1) for note in report.notes if "=" in note
    )
    assert notes["MIN_UNSAT_ORIGINAL"] == "-1/3"
    assert notes["MIN_UNSAT_STRIPPED"] == "0/1"
    assert notes["VAL_ORIGINAL"] == "-1/2"
    assert notes["VAL_STRIPPED"] == "0/1"
    assert notes["NORMALIZED_LOWER"] == "HOLDS"
    assert notes["NORMALIZED_UPPER"] == "FAILS"
    assert notes["NORMALIZED_UPPER_BOUND"] == "-1/6"


def test_strip_all_positive_collapses():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, 2, perm(2, 1)))
    report = check_strip_bounds(inst)
    assert report.passed
    notes = dict(note.split("=", 1) for note in report.notes if "=" in note)
    assert notes["MIN_UNSAT_ORIGINAL"] == notes["MIN_UNSAT_STRIPPED"]
    assert notes["NORMALIZED_LOWER"] == "HOLDS"
    assert notes["NORMALIZED_UPPER"] == "HOLDS"


def test_strip_requires_positive_sigma():
    inst = gugp(2, 2, (0, 1, 1, identity(2)), (0, 1, -2, perm(2, 1)))
    with pytest.raises(ObjectiveMismatchError):
        check_strip_bounds(inst)


def test_strip_bounds_calls_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_strip_bounds called brute_force")

    monkeypatch.setattr(verification, "brute_force", refuse)
    report = check_strip_bounds(counterexample_instance())
    assert report.passed and report.cases == 4
    # the solvers' own rule and message refuse an over-cap label space
    with pytest.raises(CapacityError, match=r"^label space 2\^2 exceeds cap 3$"):
        check_strip_bounds(counterexample_instance(), cap=3)


@pytest.mark.parametrize(
    "skew, witness",
    [
        ("cases", (None, "case-count", 4, 5)),
        ("minimum", (None, "witness-rescore", Fraction(-2, 3), Fraction(-1, 3))),
    ],
)
def test_strip_bounds_fails_on_a_scan_that_misreports(monkeypatch, skew, witness):
    real_scan = verification._strip_scan

    def skewed(*args):
        cases, witnesses, orig, stripped = real_scan(*args)
        if skew == "cases":
            cases += 1
        else:
            orig = (orig[0] - 1, orig[1])
        return cases, witnesses, orig, stripped

    monkeypatch.setattr(verification, "_strip_scan", skewed)
    report = check_strip_bounds(counterexample_instance())
    assert report.verdict == "FAIL"
    assert witness in report.witnesses


def test_strip_scan_records_at_most_the_reported_witnesses(monkeypatch):
    # a faulty positive plan, the negated game's table set, breaks the
    # sandwich at most of the 3^8 labelings
    spec = GenSpec("random-gugp", 1, n=8, m=20, k=3, max_ratio=Fraction(1, 2))
    inst = generate(spec).instance
    negated = GugpInstance(
        inst.n, inst.k, [dataclasses.replace(e, weight=-e.weight) for e in inst.edges]
    )
    real_scan, real_strip_scan = verification.scan, verification._strip_scan
    held = []

    def faulty_scan(instance, domains, positive=False):
        return real_scan(negated if positive else instance, domains)

    def counted(*args):
        found = real_strip_scan(*args)
        held.append(len(found[1]))
        return found

    monkeypatch.setattr(verification, "scan", faulty_scan)
    monkeypatch.setattr(verification, "_strip_scan", counted)
    cap = verification.MAX_RECORDED_WITNESSES
    report = check_strip_bounds(inst)
    # with room for every labeling, the scan records them all, and the
    # report keeps the same first witnesses
    monkeypatch.setattr(verification, "MAX_RECORDED_WITNESSES", 3**8)
    unbounded = check_strip_bounds(dataclasses.replace(inst))
    assert held[0] == cap < held[1]
    cut = dataclasses.replace(unbounded, witnesses=unbounded.witnesses[:cap])
    assert report == cut and report.verdict == "FAIL" and report.cases == 3**8


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**62))
def test_strip_sandwich_on_ratio_bounded_instances(seed):
    rng = SplitMix64(seed)
    n = 2 + rng.below(5)
    k = 1 + rng.below(3)
    m = 1 + rng.below(6)
    edges = []
    for _ in range(m):
        u = rng.below(n)
        v = (u + 1 + rng.below(n - 1)) % n
        image = list(range(1, k + 1))
        rng.shuffle(image)
        w = Fraction(1 + rng.below(9), 1 + rng.below(9))
        edges.append(GugpEdge(u, v, w, Permutation(tuple(image))))
    inst = GugpInstance(n, k, tuple(edges))
    # add one small negative edge, keeping ratio <= 1/2
    total = sum(e.weight for e in inst.edges)
    neg = GugpEdge(0, 1, -total / 2, identity(k))
    inst = GugpInstance(n, k, inst.edges + (neg,))
    report = check_strip_bounds(inst)
    assert report.passed


# ---------------------------------------------------------------------------
# factor-2 guarantee


def test_half_guarantee_single_edge():
    report = check_half_guarantee(gugp(2, 2, (0, 1, -1, identity(2))))
    assert report.passed
    assert "VAL=1/1" in report.notes


def test_half_guarantee_optimum_skip_note():
    inst = gugp(2, 2, (0, 1, -1, identity(2)))
    report = check_half_guarantee(inst, cap=1)
    assert report.passed
    assert "OPTIMUM=SKIPPED-CAPACITY" in report.notes


@pytest.mark.parametrize("cap, note", [(4, "OPTIMUM=1/1"), (3, "OPTIMUM=SKIPPED-CAPACITY")])
def test_half_guarantee_optimum_runs_exactly_up_to_the_cap(cap, note):
    # 2^2 labelings: the solver's own capacity check decides
    report = check_half_guarantee(gugp(2, 2, (0, 1, -1, identity(2))), cap=cap)
    assert report.passed
    assert note in report.notes


def test_half_guarantee_contradictory_parallel_edges():
    inst = gugp(
        2,
        2,
        (0, 1, -1, identity(2)),
        (0, 1, -1, perm(2, 1)),
    )
    report = check_half_guarantee(inst)
    assert report.passed
    assert "VAL=1/2" in report.notes
    assert "OPTIMUM=1/2" in report.notes


# ---------------------------------------------------------------------------
# tour equivalence


def full_tour_oracle(tsp):
    """Independent route: scan every vertex order, no symmetry shortcut."""
    return min(
        tour_weight(tsp, tour)
        for tour in itertools.permutations(range(tsp.n))
    )


def test_tsp_unit_triangle():
    tsp = TspInstance(
        3, ((0, 1, Fraction(1)), (0, 2, Fraction(1)), (1, 2, Fraction(1)))
    )
    report = check_tsp_equivalence(tsp)
    assert report.passed
    assert "TSP_OPTIMUM=3/1" in report.notes
    assert "ENCODED_MIN_ABS_SAT=3/1" in report.notes


def test_tsp_k4_distinct_weights():
    tsp = TspInstance(
        4,
        tuple(
            (u, v, Fraction(u + v + 1))
            for u in range(4)
            for v in range(u + 1, 4)
        ),
    )
    report = check_tsp_equivalence(tsp)
    assert report.passed
    assert exhaustive_tsp_optimum(tsp)[0] == full_tour_oracle(tsp)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=2**62))
def test_tsp_k5_random_weights(seed):
    rng = SplitMix64(seed)
    tsp = TspInstance(
        5,
        tuple(
            (u, v, Fraction(1 + rng.below(9), 1 + rng.below(9)))
            for u in range(5)
            for v in range(u + 1, 5)
        ),
    )
    report = check_tsp_equivalence(tsp)
    assert report.passed
    assert exhaustive_tsp_optimum(tsp)[0] == full_tour_oracle(tsp)


# ---------------------------------------------------------------------------
# smoothness


def projection(k1, k2, mapping):
    return Relation(k1, k2, frozenset((a, mapping[a]) for a in range(1, k1 + 1)))


def test_smoothness_zero_for_bijections():
    rel = Relation(2, 2, frozenset({(1, 2), (2, 1)}))
    inst = RelationalInstance(
        2,
        2,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    assert smoothness(inst) == 0


def test_smoothness_two_projection_example():
    merge_a = projection(2, 2, {1: 1, 2: 1})
    keep = projection(2, 2, {1: 1, 2: 2})
    inst = RelationalInstance(
        3,
        2,
        2,
        (RelEdge(0, 1, Fraction(1), merge_a), RelEdge(0, 2, Fraction(1), keep)),
        sides=("V", "W", "W"),
    )
    assert smoothness(inst) == Fraction(1, 2)


def test_smoothness_constant_projection_is_one():
    constant = projection(3, 2, {1: 1, 2: 1, 3: 1})
    inst = RelationalInstance(
        2,
        3,
        2,
        (RelEdge(0, 1, Fraction(1), constant),),
        sides=("V", "W"),
    )
    assert smoothness(inst) == 1


def test_smoothness_rejects_non_projection():
    rel = Relation(2, 2, frozenset({(1, 1), (1, 2), (2, 1)}))
    inst = RelationalInstance(
        2,
        2,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    with pytest.raises(ValidationError, match="not a projection"):
        smoothness(inst)


def test_smoothness_rejects_non_bipartite():
    rel = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
    inst = RelationalInstance(2, 2, 2, (RelEdge(0, 1, Fraction(1), rel),))
    with pytest.raises(ValidationError, match="bipartite"):
        smoothness(inst)


def test_smoothness_cap_boundary(monkeypatch):
    # three edges at one V vertex on 4 left labels: 3 * C(4, 2) = 18 looks
    merge = projection(4, 2, {1: 1, 2: 1, 3: 2, 4: 2})
    edges = tuple(RelEdge(0, w, Fraction(1), merge) for w in (1, 2, 1))
    inst = RelationalInstance(3, 4, 2, edges, sides=("V", "W", "W"))
    monkeypatch.setattr(verification, "DEFAULT_CASE_CAP", 18)
    assert smoothness(inst) == 1
    monkeypatch.setattr(verification, "DEFAULT_CASE_CAP", 17)
    with pytest.raises(CapacityError, match=r"^smoothness needs 18 pair looks > cap 17$"):
        smoothness(inst)


def test_isolated_left_vertices_reported():
    rel = projection(2, 2, {1: 1, 2: 2})
    inst = RelationalInstance(
        3,
        2,
        2,
        (RelEdge(0, 2, Fraction(1), rel),),
        sides=("V", "V", "W"),
    )
    assert isolated_left_vertices(inst) == (1,)
    assert smoothness(inst) == 0
