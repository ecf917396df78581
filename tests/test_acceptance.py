"""Acceptance checks: one test per headline criterion, desk-scale, exact
rational arithmetic throughout.  Each test prints a single summary line so a
verbose run reads as a checklist."""

from fractions import Fraction

import pytest

from gugp_workbench import (
    GenSpec,
    GugpEdge,
    GugpInstance,
    Objective,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    SplitMix64,
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    brute_force,
    brute_force_relational,
    check_bundle_exactly_one,
    check_gadget_metrics,
    check_indicator_weights,
    check_strip_bounds,
    check_tsp_equivalence,
    check_value_transfer,
    coordinate_collision_predicate,
    decode_label,
    decode_vertex,
    exhaustive_tsp_optimum,
    generate,
    labeling_to_tour,
    local_search_half,
    metrics,
    pair_block_predicate,
    parse,
    product_coloring,
    pwt1_gadget,
    repeat_max3cut,
    satisfied_weight,
    serialize,
    smoothness,
    tour_to_labeling,
    tour_weight,
    two2two_to_pwt_half,
)
from gugp_workbench.errors import ParseError, ValidationError

HALF = Fraction(1, 2)

EDGE = (2, ((0, 1),))
K3 = (3, ((0, 1), (0, 2), (1, 2)))
K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def shift_gadget(base, fold):
    n, edges = base
    repeated = repeat_max3cut(n, edges, fold)
    gadget, bundles = pwt1_gadget(repeated)
    return repeated, gadget, bundles


def random_permutation(stream, size):
    image = list(range(1, size + 1))
    stream.shuffle(image)
    return Permutation(tuple(image))


def ok(report):
    assert report.verdict == "PASS", report
    assert report.witnesses == ()
    return report


def done(tag, detail=""):
    print(f"ACCEPT {tag} PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# 1. every shift-gadget bundle satisfies exactly one parallel edge


def test_c01_bundle_exactly_one_satisfied():
    cases = 0
    for fold in (1, 2):
        for base in (EDGE, K3):
            repeated, gadget, bundles = shift_gadget(base, fold)
            report = ok(check_bundle_exactly_one(gadget, bundles))
            assert report.cases == len(repeated.edges) * 9**fold
            cases += report.cases
    done("C1", f"{cases} label pairs, 0 counterexamples")


# ---------------------------------------------------------------------------
# 2. unsatisfied bundle weight is a 0/1 collision indicator


def test_c02_unsat_weight_is_collision_indicator():
    cases = 0
    for fold in (1, 2):
        for base in (EDGE, K3):
            repeated, gadget, bundles = shift_gadget(base, fold)
            report = ok(
                check_indicator_weights(
                    gadget, bundles, coordinate_collision_predicate(fold)
                )
            )
            assert report.cases == len(repeated.edges) * 9**fold
            cases += report.cases
    done("C2", f"{cases} exact 0/1 comparisons")


# ---------------------------------------------------------------------------
# 3. shift-gadget metrics match their closed forms


def test_c03_shift_gadget_metrics_closed_form():
    for fold in (1, 2, 3):
        for base in (EDGE, K3):
            repeated, gadget, bundles = shift_gadget(base, fold)
            got = metrics(gadget)
            three, two = 3**fold, 2**fold
            assert got.ratio == 1 - Fraction(1, two)
            assert got.sigma == Fraction(three - two, three - 1) * len(
                repeated.edges
            )
            ok(check_gadget_metrics(gadget, "pwt1", fold, len(repeated.edges)))
    done("C3", "ratio and sigma exact for fold 1..3")


# ---------------------------------------------------------------------------
# 4. pair-block gadgets: partition, indicator, metrics


def test_c04_pair_block_partition_indicator_metrics():
    trials = 0
    for k in (2, 3):
        stream = SplitMix64(0xACC4_0000 + k)
        for _ in range(20):
            pu = random_permutation(stream, 2 * k)
            pv = random_permutation(stream, 2 * k)
            source = TwoToTwoInstance(
                2, k, (T22Edge(0, 1, Fraction(1), pu, pv),)
            )
            gadget, bundles = two2two_to_pwt_half(source)

            # the 2k permutation graphs tile [2k] x [2k]: counted two ways
            ok(check_bundle_exactly_one(gadget, bundles))
            graph_union = {
                (x, e.pi.apply(x))
                for e in gadget.edges
                for x in range(1, 2 * k + 1)
            }
            assert len(graph_union) == (2 * k) ** 2

            report = ok(
                check_indicator_weights(
                    gadget, bundles, pair_block_predicate(source)
                )
            )
            assert report.cases == (2 * k) ** 2

            got = metrics(gadget)
            assert got.ratio == HALF
            assert got.sigma == Fraction(2 * k - 2, 2 * k - 1)
            trials += 1

    # the |E| factor in sigma, pinned on a two-edge instance
    stream = SplitMix64(0xACC4_FFFF)
    edges = tuple(
        T22Edge(
            u,
            u + 1,
            Fraction(1),
            random_permutation(stream, 4),
            random_permutation(stream, 4),
        )
        for u in (0, 1)
    )
    gadget, _ = two2two_to_pwt_half(TwoToTwoInstance(3, 2, edges))
    assert metrics(gadget).sigma == Fraction(2, 3) * 2
    assert metrics(gadget).ratio == HALF
    done("C4", f"{trials} random permutation pairs")


# ---------------------------------------------------------------------------
# 5. exhaustive gadget optimum obeys the value-transfer identity


def test_c05_value_transfer_identity():
    checked = []
    for base, fold in ((EDGE, 1), (K3, 1), (K4, 1), (EDGE, 2)):
        repeated, gadget, _ = shift_gadget(base, fold)
        source = repeated.to_relational()
        report = ok(check_value_transfer(source, gadget))
        expected = (
            (1 - brute_force_relational(source).value)
            * len(source.edges)
            / metrics(gadget).sigma
        )
        assert brute_force(gadget, Objective.MIN_PWT).value == expected
        checked.append(expected)
        if base is K4:
            assert "SOURCE_OPTIMUM=5/6" in report.notes
            assert "GADGET_MIN_PWT=1/3" in report.notes

    # K4's one unavoidable monochromatic pair makes the optimum positive
    assert checked[2] == Fraction(1, 3)
    assert checked[0] == checked[1] == checked[3] == 0

    stream = SplitMix64(0xACC5)
    for n, m in ((2, 1), (3, 2), (4, 3), (4, 4)):
        edges = []
        for _ in range(m):
            u = stream.below(n - 1)
            edges.append(
                T22Edge(
                    u,
                    u + 1 + stream.below(n - u - 1),
                    Fraction(1),
                    random_permutation(stream, 4),
                    random_permutation(stream, 4),
                )
            )
        source = TwoToTwoInstance(n, 2, tuple(edges))
        gadget, _ = two2two_to_pwt_half(source)
        report = ok(check_value_transfer(source.to_unit_relational(), gadget))
        expected = (
            (1 - brute_force_relational(source.to_unit_relational()).value)
            * m
            / metrics(gadget).sigma
        )
        assert brute_force(gadget, Objective.MIN_PWT).value == expected
    done("C5", "shift and pair-block gadgets")


# ---------------------------------------------------------------------------
# 6. local search halves the all-negative optimum


def restated_unhappy(instance, labeling):
    """Vertices whose incident restated-satisfied weight is below half."""
    unhappy = []
    for v in range(instance.n):
        sat = Fraction(0)
        total = Fraction(0)
        for e in instance.edges:
            if v not in (e.u, e.v):
                continue
            total += abs(e.weight)
            if e.pi.apply(labeling[e.u]) != labeling[e.v]:
                sat += abs(e.weight)
        if 2 * sat < total:
            unhappy.append(v)
    return unhappy


def test_c06_local_search_half_guarantee():
    sizes = SplitMix64(0xACC6)
    long_runs = 0
    for trial in range(200):
        spec = GenSpec(
            "random-gugp",
            seed=trial,
            n=2 + sizes.below(7),
            m=1 + sizes.below(16),
            k=2 + sizes.below(3),
            nwa=True,
        )
        instance = generate(spec).instance
        local = local_search_half(instance)
        assert local.value >= HALF
        assert restated_unhappy(instance, local.labeling) == []
        optimum = brute_force(instance, Objective.MAX_NWA).value
        assert local.value <= optimum
        assert 2 * local.value >= optimum
        if local.visited > instance.n:
            long_runs += 1
    print(f"ACCEPT C6 NOTE iterations exceeded |V| in {long_runs} of 200 runs")
    done("C6", "200 runs, factor-2 and local-happiness exact")


# ---------------------------------------------------------------------------
# 7. tour optimum survives the round trip through the all-negative encoding


def canonical(tour):
    at = tour.index(0)
    return tour[at:] + tour[:at]


def test_c07_tsp_equivalence():
    for n in (3, 4, 5):
        for trial in range(10):
            tsp = generate(
                GenSpec("random-tsp", seed=1000 * n + trial, n=n)
            ).instance
            ok(check_tsp_equivalence(tsp))
            best_weight, best_tour = exhaustive_tsp_optimum(tsp)
            labeling = tour_to_labeling(tsp, best_tour)
            again = labeling_to_tour(tsp, labeling)
            assert canonical(again) == canonical(best_tour)
            assert tour_weight(tsp, again) == best_weight
    done("C7", "30 seeded complete graphs, witnesses round-trip")


# ---------------------------------------------------------------------------
# 8. dropping negative edges moves the optimum by at most |W-|


def test_c08_strip_sandwich():
    sizes = SplitMix64(0xACC8)
    for trial in range(100):
        spec = GenSpec(
            "random-gugp",
            seed=trial,
            n=2 + sizes.below(5),
            m=1 + sizes.below(10),
            k=2 + sizes.below(2),
            max_ratio=HALF,
        )
        instance = generate(spec).instance
        ratio = metrics(instance).ratio
        assert ratio is None or ratio <= HALF
        ok(check_strip_bounds(instance))

    # negative-optimum counterexample: sandwich holds, the normalized
    # upper bound does not, and that is reported without failing
    counterexample = GugpInstance(
        2,
        2,
        (
            GugpEdge(0, 1, Fraction(1), Permutation((1, 2))),
            GugpEdge(0, 1, Fraction(-1, 3), Permutation((2, 1))),
        ),
    )
    report = ok(check_strip_bounds(counterexample))
    assert "VAL_ORIGINAL=-1/2" in report.notes
    assert "VAL_STRIPPED=0/1" in report.notes
    assert "NORMALIZED_UPPER_BOUND=-1/6" in report.notes
    assert "NORMALIZED_UPPER=FAILS" in report.notes
    done("C8", "100 sandwiches exact; counterexample reproduced")


# ---------------------------------------------------------------------------
# 9. product colorings lift base 3-colorings through repetition


def test_c09_repetition_completeness():
    sizes = SplitMix64(0xACC9)
    for trial in range(20):
        n = 3 + sizes.below(4)
        spec = GenSpec("planted-3col", seed=trial, n=n, m=1 + sizes.below(n))
        result = generate(spec)
        chi = result.planted
        base_edges = tuple((e.u, e.v) for e in result.instance.edges)
        for fold in (1, 2):
            repeated = repeat_max3cut(n, base_edges, fold)
            lifted = product_coloring(chi, fold)
            sat = satisfied_weight(repeated.to_relational(), lifted)
            assert sat == Fraction(len(repeated.edges))
            for u, v in repeated.edges:
                cu = decode_label(lifted[u], fold)
                cv = decode_label(lifted[v], fold)
                assert all(a != b for a, b in zip(cu, cv))
                assert cu == tuple(chi[c] for c in decode_vertex(u, n, fold))
    done("C9", "20 planted colorings lift at fold 1 and 2")


# ---------------------------------------------------------------------------
# 10. smoothness: 0 for bijections, 1/2 on the two-projection instance


def bipartite_bijection_instance(stream):
    k = 2 + stream.below(4)
    lefts = 1 + stream.below(3)
    rights = 1 + stream.below(3)
    n = lefts + rights
    sides = tuple("V" if v < lefts else "W" for v in range(n))
    edges = []
    for _ in range(1 + stream.below(5)):
        pi = random_permutation(stream, k)
        rel = Relation(k, k, frozenset((x, pi.apply(x)) for x in range(1, k + 1)))
        edges.append(
            RelEdge(stream.below(lefts), lefts + stream.below(rights), Fraction(1), rel)
        )
    return RelationalInstance(n, k, k, tuple(edges), sides=sides)


def test_c10_smoothness_exact_values():
    stream = SplitMix64(0xACCA)
    for _ in range(20):
        assert smoothness(bipartite_bijection_instance(stream)) == 0

    merge_first = Relation(2, 2, frozenset({(1, 1), (2, 1)}))
    keep_both = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
    two_projections = RelationalInstance(
        3,
        2,
        2,
        (
            RelEdge(0, 1, Fraction(1), merge_first),
            RelEdge(0, 2, Fraction(1), keep_both),
        ),
        sides=("V", "W", "W"),
    )
    assert smoothness(two_projections) == HALF

    constant = Relation(3, 2, frozenset({(1, 1), (2, 1), (3, 1)}))
    all_merged = RelationalInstance(
        2,
        3,
        2,
        (RelEdge(0, 1, Fraction(1), constant),),
        sides=("V", "W"),
    )
    assert smoothness(all_merged) == 1
    done("C10", "eta exact: 0, 1/2, 1")


# ---------------------------------------------------------------------------
# 11. serialization round trips and rejects what it documents rejecting


def rel_corpus(count):
    out = []
    stream = SplitMix64(0xACCB)
    for i in range(count):
        if i % 2 == 0:
            n = 3 + stream.below(4)
            spec = GenSpec("planted-3col", seed=i, n=n, m=1 + stream.below(n))
            out.append(generate(spec).instance)
        else:
            out.append(bipartite_bijection_instance(stream))
    return out


def gugp_corpus(count):
    out = []
    sizes = SplitMix64(0xACCC)
    for i in range(count):
        spec = GenSpec(
            "random-gugp",
            seed=i,
            n=2 + sizes.below(5),
            m=1 + sizes.below(8),
            k=2 + sizes.below(3),
            nwa=(i % 3 == 0),
            max_ratio=None if i % 3 == 0 else HALF,
        )
        out.append(generate(spec).instance)
    return out


def t22_corpus(count):
    sizes = SplitMix64(0xACCD)
    return [
        generate(
            GenSpec(
                "random-t22",
                seed=i,
                n=2 + sizes.below(3),
                m=1 + sizes.below(4),
                k=2 + sizes.below(2),
                satisfiable=(i % 2 == 0),
            )
        ).instance
        for i in range(count)
    ]


def tsp_corpus(count):
    sizes = SplitMix64(0xACCE)
    return [
        generate(GenSpec("random-tsp", seed=i, n=3 + sizes.below(5))).instance
        for i in range(count)
    ]


def lab_corpus(count):
    stream = SplitMix64(0xACCF)
    return [
        tuple(1 + stream.below(9) for _ in range(1 + stream.below(12)))
        for _ in range(count)
    ]


MALFORMED = [
    ("GUGP v1\nk 2\nn 2\ne 0 1 0/1 1 2\n", "zero-weight edge"),
    ("GUGP v1\nk 3\nn 2\ne 0 1 1/1 2 2 1\n", "not a bijection"),
    ("GUGP v1\nk 2\nn 2\ne 0 0 1/1 1 2\n", "self-loop"),
    ("GUGP v1\nk 2\nn 2\ne 0 5 1/1 1 2\n", "references vertex"),
    ("GUGP v1\nk 2\nn 2\ne 0 1 1/0 1 2\n", "denominator must be positive"),
    ("GUGP v1\nk 2\nn 2\ne 0 1 1 1 2\n", "<num>/<den>"),
    ("GUGP v1\nk 2\nn 2\nq 0 1 1/1 1 2\n", "expected 'e "),
    ("GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2 9\n", "<2 images>"),
    ("GUGP v2\nk 2\nn 2\n", "unknown header"),
    ("NOPE v1\n", "unknown header"),
    ("", "unexpected end of file"),
    ("LAB v1\nn 2\nf 0 1\nf 0 2\n", "duplicate"),
    ("LAB v1\nn 2\nf 0 1\n", "every vertex exactly once"),
    ("LAB v1\nn 1\nf 0 0\n", "1-indexed"),
    ("REL v1\nk1 2\nk2 2\nn 2\nbipartite 2\n", "expected 'bipartite"),
    ("REL v1\nk1 2\nk2 2\nn 2\nbipartite 1\ns 0 V\ne 0 1 1/1 1 1 1\n", "side"),
    (
        "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 2 1 1 1 1\n",
        "duplicate relation pair",
    ),
    ("REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 1 1 9\n", "out of range"),
    ("T22 v1\nk 2\nn 2\ne 0 1 1/1 pq 1 2 3 4 pv 1 2 3 4\n", "pu"),
    ("TSP v1\nn 3\nw 0 1 1/1\nw 0 2 1/1\n", "exactly one weight"),
    ("TSP v1\nn 3\nw 0 1 1/1\nw 0 2 1/1\nw 2 1 1/1\n", "u < v"),
    ("GUGP v1\nk 2\nn x\ne 0 1 1/1 1 2\n", "expected integer"),
    ("GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2\nextra\n", "expected 'e "),
]


def test_c11_serialization_round_trip_and_rejections():
    corpora = {
        "GUGP": gugp_corpus(100),
        "REL": rel_corpus(100),
        "T22": t22_corpus(100),
        "TSP": tsp_corpus(100),
        "LAB": lab_corpus(100),
    }
    for name, corpus in corpora.items():
        assert len(corpus) == 100
        for item in corpus:
            assert parse(serialize(item)) == item, name

    for text, needle in MALFORMED:
        with pytest.raises((ParseError, ValidationError), match=needle):
            parse(text)
    done("C11", f"5x100 round trips, {len(MALFORMED)} rejections")
