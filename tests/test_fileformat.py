"""Text formats: canonical bytes, round trips, and malformed-input errors."""

import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    CapacityError,
    DegenerateInstanceError,
    GugpEdge,
    GugpInstance,
    ParseError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    T22Edge,
    TspInstance,
    TwoToTwoInstance,
    ValidationError,
    fmt_fraction,
    parse,
    pwt1_gadget,
    repeat_max3cut,
    serialize,
    serialize_labeling,
    two2two_relation,
)
from gugp_workbench import fileformat
from gugp_workbench.fileformat import parse_fraction

from conftest import gugp, gugp_instances, identity, perm, permutations


# ---------------------------------------------------------------------------
# canonical bytes


def test_gugp_canonical_bytes():
    inst = GugpInstance(
        2,
        3,
        (
            GugpEdge(0, 1, Fraction(-1, 2), Permutation((2, 3, 1))),
            GugpEdge(1, 0, Fraction(3), Permutation((1, 2, 3))),
        ),
    )
    assert serialize(inst) == (
        "GUGP v1\nk 3\nn 2\ne 0 1 -1/2 2 3 1\ne 1 0 3/1 1 2 3\n"
    )


def test_rel_canonical_bytes():
    inst = RelationalInstance(
        2,
        2,
        2,
        (RelEdge(0, 1, Fraction(1, 3), Relation(2, 2, frozenset({(1, 2), (2, 1)}))),),
    )
    assert serialize(inst) == (
        "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/3 2 1 2 2 1\n"
    )


def test_rel_bipartite_canonical_bytes():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    inst = RelationalInstance(
        2,
        4,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    assert serialize(inst) == (
        "REL v1\nk1 4\nk2 2\nn 2\nbipartite 1\ns 0 V\ns 1 W\n"
        "e 0 1 1/1 4 1 1 2 1 3 2 4 2\n"
    )


def test_t22_canonical_bytes():
    inst = TwoToTwoInstance(
        2,
        2,
        (
            T22Edge(
                0,
                1,
                Fraction(5, 7),
                Permutation((2, 1, 4, 3)),
                Permutation((1, 2, 3, 4)),
            ),
        ),
    )
    assert serialize(inst) == (
        "T22 v1\nk 2\nn 2\ne 0 1 5/7 pu 2 1 4 3 pv 1 2 3 4\n"
    )


def test_tsp_canonical_bytes():
    tsp = TspInstance(
        3, ((0, 1, Fraction(1)), (0, 2, Fraction(9, 4)), (1, 2, Fraction(2)))
    )
    assert serialize(tsp) == (
        "TSP v1\nn 3\nw 0 1 1/1\nw 0 2 9/4\nw 1 2 2/1\n"
    )


def test_labeling_canonical_bytes():
    assert serialize((2, 1, 3)) == "LAB v1\nn 3\nf 0 2\nf 1 1\nf 2 3\n"
    assert serialize_labeling((2, 1, 3)) == serialize((2, 1, 3))


def test_fractions_always_carry_denominator():
    assert fmt_fraction(Fraction(3)) == "3/1"
    assert fmt_fraction(Fraction(-1, 2)) == "-1/2"
    assert fmt_fraction(Fraction(0)) == "0/1"


def test_fractions_past_the_digit_limit_print_exactly(digit_limit):
    # the limit guards parsing only: past it one conversion lifts it, and
    # the limit holds again afterwards
    big = Fraction(10**digit_limit + 1, 3)
    sys.set_int_max_str_digits(0)
    expected = f"{10**digit_limit + 1}/3"
    sys.set_int_max_str_digits(digit_limit)
    assert fmt_fraction(big) == expected
    assert fmt_fraction(-big) == "-" + expected
    assert sys.get_int_max_str_digits() == digit_limit
    with pytest.raises(ParseError, match="exceeds the 4300-digit limit"):
        parse_fraction(expected, 1)


def test_serialize_ends_with_single_newline():
    text = serialize(gugp(2, 2, (0, 1, 1, identity(2))))
    assert text.endswith("\n") and not text.endswith("\n\n")


# ---------------------------------------------------------------------------
# round trips


@given(gugp_instances())
def test_gugp_round_trip(inst):
    assert parse(serialize(inst)) == inst


@given(st.integers(min_value=3, max_value=6), st.data())
def test_tsp_round_trip(n, data):
    weights = tuple(
        (
            u,
            v,
            Fraction(
                data.draw(st.integers(min_value=1, max_value=40)),
                data.draw(st.integers(min_value=1, max_value=40)),
            ),
        )
        for u in range(n)
        for v in range(u + 1, n)
    )
    tsp = TspInstance(n, weights)
    assert parse(serialize(tsp)) == tsp


@given(permutations(k=4), permutations(k=4))
def test_t22_round_trip(pu, pv):
    inst = TwoToTwoInstance(2, 2, (T22Edge(0, 1, Fraction(2, 9), pu, pv),))
    assert parse(serialize(inst)) == inst


@given(permutations(k=4), permutations(k=4))
def test_rel_round_trip(pu, pv):
    rel = two2two_relation(pu, pv)
    inst = RelationalInstance(3, 4, 4, (RelEdge(0, 2, Fraction(7, 3), rel),))
    assert parse(serialize(inst)) == inst


def test_bipartite_rel_round_trip():
    rel = Relation(4, 2, frozenset({(1, 1), (2, 1), (3, 2), (4, 2)}))
    inst = RelationalInstance(
        3,
        4,
        2,
        (RelEdge(0, 2, Fraction(1), rel), RelEdge(1, 2, Fraction(2), rel)),
        sides=("V", "V", "W"),
    )
    assert parse(serialize(inst)) == inst


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_labeling_round_trip(labels):
    labeling = tuple(labels)
    assert parse(serialize(labeling)) == labeling


def test_gugp_parse_shares_one_permutation_per_image():
    gadget, _ = pwt1_gadget(repeat_max3cut(3, ((0, 1), (1, 2), (2, 0)), 2))
    text = serialize(gadget)
    parsed = parse(text)
    assert len({id(e.pi) for e in parsed.edges}) == 9 < len(parsed.edges)
    assert parsed == gadget
    assert serialize(parsed) == text


def test_repeated_tokens_parse_to_one_shared_object():
    a, b = parse("GUGP v1\nk 2\nn 3\ne 0 1 1/2 2 1\ne 1 2 1/2 2 1\n").edges
    assert a.weight is b.weight and a.pi is b.pi
    a, b = parse(
        "T22 v1\nk 2\nn 3\n"
        "e 0 1 1/2 pu 2 1 3 4 pv 1 2 3 4\n"
        "e 1 2 1/2 pu 1 2 3 4 pv 2 1 3 4\n"
    ).edges
    assert a.weight is b.weight and a.pi_u is b.pi_v and a.pi_v is b.pi_u
    a, b = parse(
        "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\n"
        "e 0 1 1/2 2 1 2 2 1\ne 1 2 1/2 2 1 2 2 1\n"
    ).edges
    assert a.weight is b.weight and a.rel is b.rel


def test_comments_and_blank_lines_ignored():
    text = (
        "# hand-written file\n"
        "GUGP v1\n"
        "\n"
        "k 2\n"
        "# vertex count follows\n"
        "n 2\n"
        "e 0 1 1/1 1 2\n"
        "\n"
    )
    assert parse(text) == gugp(2, 2, (0, 1, 1, identity(2)))


def test_non_canonical_fractions_are_normalized():
    text = "GUGP v1\nk 2\nn 2\ne 0 1 2/4 1 2\n"
    inst = parse(text)
    assert inst.edges[0].weight == Fraction(1, 2)


# ---------------------------------------------------------------------------
# documented malformed inputs


def test_zero_weight_is_a_validation_error():
    text = "GUGP v1\nk 2\nn 2\ne 0 1 0/1 1 2\n"
    with pytest.raises(ValidationError, match="zero-weight edge"):
        parse(text)


def test_non_bijection_is_a_validation_error():
    text = "GUGP v1\nk 3\nn 2\ne 0 1 1/1 2 2 1\n"
    with pytest.raises(ValidationError, match="not a bijection"):
        parse(text)


def test_unknown_header():
    with pytest.raises(ParseError):
        parse("BOGUS v1\nn 2\n")


def test_unknown_version():
    with pytest.raises(ParseError):
        parse("GUGP v2\nk 2\nn 2\n")


def test_empty_input():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("# only a comment\n")


def test_parse_error_reports_line_number():
    text = "GUGP v1\nk 2\nn 2\ne 0 1 1/1 1\n"  # permutation too short
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.line == 4
    assert "line 4" in str(excinfo.value)


def test_non_integer_image_after_a_shared_one_names_its_line():
    text = "GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2\ne 1 0 1/1 1 2\ne 1 0 1/1 1 x\n"
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.line == 6


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "GUGP v1\nk 2\nn 3\ne 0 1 1/2 1 2\ne 1 2 1/0 1 2\n",
            "line 5: denominator must be positive in '1/0'",
        ),
        (
            "T22 v1\nk 2\nn 3\ne 0 1 1/1 pu 1 2 3 4 pv 1 2 3 4\n"
            "e 1 2 1/1 pu 1 2 3 4 pv 1 2 x 4\n",
            "line 5: expected integer, got 'x'",
        ),
        (
            "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\n"
            "e 0 1 1/1 1 1 2\ne 1 2 1/1 1 1 x\n",
            "line 7: expected integer, got 'x'",
        ),
        (
            "REL v1\nk1 2\nk2 2\nn 3\nbipartite 0\n"
            "e 0 1 1/1 1 1 2\ne 1 2 1/1 2 1 2 1 2\n",
            "line 7: duplicate relation pair (1,2)",
        ),
        (
            "TSP v1\nn 3\nw 0 1 1/1\nw 0 2 1/1\nw 1 2 x/1\n",
            "line 5: non-integer rational parts in 'x/1'",
        ),
    ],
)
def test_bad_token_first_seen_on_a_later_line_names_that_line(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, line",
    [
        ("TSP v1\nn 3\nw 0 1 1/1\nw 0 2 {big}/1\nw 1 2 1/1\n", 4),
        ("GUGP v1\nk 2\nn 2\ne 0 1 -1/{big} 2 1\n", 4),
        ("GUGP v1\nk 2\nn 2\ne 0 1 1/1 2 1\ne 0 1 -{big}/3 1 2\n", 5),
    ],
)
def test_rational_part_past_the_digit_limit_is_named_by_its_length(
    digit_limit, text, line
):
    big = "9" * (digit_limit + 700)
    with pytest.raises(ParseError) as excinfo:
        parse(text.format(big=big))
    message = f"rational part of {digit_limit + 700} digits exceeds the 4300-digit limit"
    assert str(excinfo.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "text, line",
    [
        ("GUGP v1\nk 2\nn 2\ne 0 {big} 1/1 2 1\n", 4),
        ("GUGP v1\nk 2\nn {big}\ne 0 1 1/1 2 1\n", 3),
    ],
)
def test_integer_past_the_digit_limit_is_named_by_its_length(digit_limit, text, line):
    # both texts are in serializer form: the bulk route meets the token first
    # and refuses, then the per-line route reports it, as it does alone
    text = text.format(big="1" * (digit_limit + 700))
    message = f"integer of {digit_limit + 700} digits exceeds the 4300-digit limit"
    for bulk in (fileformat._bulk_gugp, lambda _text: None):
        with mock.patch.object(fileformat, "_bulk_gugp", bulk):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
        assert str(excinfo.value) == f"line {line}: {message}"


def test_rational_part_at_the_digit_limit_parses(digit_limit):
    part, den = "7" * digit_limit, "3" * digit_limit
    assert parse_fraction(f"-{part}/{den}", None) == Fraction(-int(part), int(den))
    with pytest.raises(ParseError, match="^rational part of 4301 digits exceeds"):
        parse_fraction(f"-{part}1/{part}", None)


# a game of each weighted format whose one weight, or every weight, is w
ONE_WEIGHT_FILES = {
    "gugp": lambda w: GugpInstance(2, 2, (GugpEdge(0, 1, w, perm(2, 1)),)),
    "rel": lambda w: RelationalInstance(
        2, 2, 2, (RelEdge(0, 1, w, Relation(2, 2, frozenset({(1, 2)}))),)
    ),
    "t22": lambda w: TwoToTwoInstance(
        2, 2, (T22Edge(0, 1, w, perm(2, 1, 4, 3), identity(4)),)
    ),
    "tsp": lambda w: TspInstance(3, ((0, 1, w), (0, 2, w), (1, 2, w))),
}


@pytest.mark.parametrize("kind", ONE_WEIGHT_FILES)
def test_file_weights_past_the_digit_limit_are_refused_before_any_text(
    digit_limit, kind
):
    # a file written past the limit would not parse back, so every
    # serializer refuses it by the part's digit count, under the limit in force
    at_limit = Fraction(10**digit_limit - 1, 7)
    instance = ONE_WEIGHT_FILES[kind](at_limit)
    assert parse(serialize(instance)) == instance
    for past in (at_limit * 10, 1 / (at_limit * 10)):
        with pytest.raises(CapacityError) as excinfo:
            serialize(ONE_WEIGHT_FILES[kind](past))
        message = f"weight part of {digit_limit + 1} digits exceeds the 4300-digit limit"
        assert str(excinfo.value) == message
    assert sys.get_int_max_str_digits() == digit_limit


@pytest.mark.parametrize(
    "text",
    [
        "GUGP v1\nk 2\nn 2\ne x 1 1/0 1 2\n",
        "T22 v1\nk 2\nn 2\ne x 1 1/0 pu 1 2 3 4 pv 1 2 3 4\n",
        "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne x 1 1/0 1 1 1\n",
        "TSP v1\nn 3\nw x 1 1/0\n",
    ],
)
def test_bad_vertex_is_reported_before_a_bad_weight(text):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value).endswith(": expected integer, got 'x'")


def test_fraction_requires_slash_form():
    text = "GUGP v1\nk 2\nn 2\ne 0 1 1 1 2\n"
    with pytest.raises(ParseError):
        parse(text)


def test_fraction_rejects_nonpositive_denominator():
    for bad in ("1/0", "1/-2"):
        text = f"GUGP v1\nk 2\nn 2\ne 0 1 {bad} 1 2\n"
        with pytest.raises(ParseError):
            parse(text)


def test_non_integer_field():
    text = "GUGP v1\nk x\nn 2\ne 0 1 1/1 1 2\n"
    with pytest.raises(ParseError):
        parse(text)


def test_missing_keyword():
    text = "GUGP v1\nq 2\nn 2\ne 0 1 1/1 1 2\n"
    with pytest.raises(ParseError):
        parse(text)


def test_lab_duplicate_vertex():
    text = "LAB v1\nn 2\nf 0 1\nf 0 2\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse(text)


def test_lab_missing_vertex():
    text = "LAB v1\nn 2\nf 0 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_lab_label_must_be_positive():
    text = "LAB v1\nn 1\nf 0 0\n"
    with pytest.raises(ParseError):
        parse(text)


def test_rel_duplicate_relation_pair():
    text = "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 2 1 1 1 1\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse(text)


def test_rel_bad_bipartite_flag():
    text = "REL v1\nk1 2\nk2 2\nn 2\nbipartite 2\ne 0 1 1/1 1 1 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_rel_missing_side_line():
    text = "REL v1\nk1 2\nk2 2\nn 2\nbipartite 1\ns 0 V\ne 0 1 1/1 1 1 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_t22_requires_markers():
    text = "T22 v1\nk 2\nn 2\ne 0 1 1/1 px 1 2 3 4 pv 1 2 3 4\n"
    with pytest.raises(ParseError):
        parse(text)
    text = "T22 v1\nk 2\nn 2\ne 0 1 1/1 pu 1 2 3 4 pw 1 2 3 4\n"
    with pytest.raises(ParseError):
        parse(text)


def test_tsp_requires_sorted_pairs():
    text = "TSP v1\nn 3\nw 1 0 1/1\nw 0 2 1/1\nw 1 2 1/1\n"
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # u, then v, then the weight are read before the pair order is checked
        ("TSP v1\nn 3\nw 1 0 x\n", "line 3: expected <num>/<den>, got 'x'"),
        ("TSP v1\nn 3\nw 1 x 1/1\n", "line 3: expected integer, got 'x'"),
        ("TSP v1\nn 3\nw x y z\n", "line 3: expected integer, got 'x'"),
        ("TSP v1\nn 3\nw 1 1 1/0\n", "line 3: denominator must be positive in '1/0'"),
        ("TSP v1\nn 3\nw 1 1 1/1\n", "line 3: pair weights require u < v"),
        # the same with the weight token cached on an earlier line
        ("TSP v1\nn 3\nw 0 1 1/1\nw 2 1 1/1\n", "line 4: pair weights require u < v"),
        ("TSP v1\nn 3\nw 0 1 1/1\nw 2 x 1/1\n", "line 4: expected integer, got 'x'"),
        ("TSP v1\nn 3\nw 0 1 1/1\nw +2 0_1 1/1\n", "line 4: pair weights require u < v"),
    ],
)
def test_tsp_reads_every_token_before_the_pair_order(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


def test_tsp_missing_pair_is_rejected():
    text = "TSP v1\nn 3\nw 0 1 1/1\nw 0 2 1/1\n"
    with pytest.raises((ParseError, ValidationError)):
        parse(text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("LAB v1\nn 1000000000000\n", ParseError),
        ("REL v1\nk1 2\nk2 2\nn 1000000000000\nbipartite 1\n", ParseError),
        ("TSP v1\nn 1000000000000\n", ValidationError),
    ],
)
def test_huge_header_count_with_empty_body_fails_at_once(text, error):
    # compared with the record count before anything of that size is built
    with pytest.raises(error, match="every vertex|every unordered pair"):
        parse(text)


# Field values that reach the deeper checks: header keywords, record tags,
# small (also negative) counts and labels, rationals good and bad, and junk.
_FIELDS = st.one_of(
    st.sampled_from(
        ["e", "s", "w", "f", "k", "k1", "k2", "n", "bipartite", "pu", "pv"]
        + ["V", "W", "1/1", "-1/2", "1/0", "2/4", "x", "#", ""]
    ),
    st.integers(min_value=-3, max_value=6).map(str),
    st.text(max_size=3),
)
_LINES = st.lists(_FIELDS, max_size=14).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["GUGP v1", "REL v1", "T22 v1", "TSP v1", "LAB v1"]),
    st.lists(_LINES, max_size=8),
)
def test_parse_raises_only_documented_errors(header, lines):
    # DegenerateInstanceError is the T22 header "k 1"
    try:
        parse("\n".join([header, *lines]))
    except (ParseError, ValidationError, DegenerateInstanceError):
        pass


@pytest.mark.parametrize(
    "text", ["GUGP v1\nk -3\nn 2\ne\n", "T22 v1\nk -1\nn 2\ne 0\n"]
)
def test_nonpositive_label_count_rejects_records_by_shape(text):
    with pytest.raises(ParseError, match="line 4"):
        parse(text)


def test_trailing_garbage_rejected():
    text = "LAB v1\nn 1\nf 0 1\nzzz\n"
    with pytest.raises(ParseError):
        parse(text)


def test_serialize_rejects_unknown_payloads():
    with pytest.raises(TypeError):
        serialize(42)
