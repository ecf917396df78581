"""Text interchange formats (all version 1, UTF-8, LF line endings).

One record per line, fields separated by single spaces; lines starting with
``#`` and blank lines are ignored on input and never produced on output.
Rational numbers always serialize canonically as ``<num>/<den>`` with a
positive denominator and gcd 1 (integers include the ``/1``).  Vertices are
0-indexed, labels 1-indexed.

Formats:

* ``GUGP v1`` -- permutation-constrained games with signed weights;
* ``REL v1``  -- relation-constrained games (optionally bipartite);
* ``T22 v1``  -- two-to-two games given by endpoint permutations;
* ``TSP v1``  -- complete weighted graphs (all pairs, u < v);
* ``LAB v1``  -- labelings (one label per vertex).

``parse(serialize(x)) == x`` holds for every valid object and serialization
is deterministic, so files are safe to diff byte-for-byte.

GUGP and REL handle each distinct part once in both directions, because
their lines repeat: across the benchmark's local-search files a GUGP line
repeats an earlier constraint string 94% of the time.  Parsing splits an
edge line only up to its constraint fields and keys its caches on the raw
constraint string: each distinct string is converted and validated on the
line where it first appears, and every later line that repeats it shares
the object built there.  Weights are cached by their token the same way.
Every edge line of every format reads ``u v w`` through ``_edge_head``:
one guarded ``int`` pair and a lookup of a weight token seen before, or,
on a new or bad token, the per-token route, so every message and line
number is the one a token-by-token parse reports.  The per-line GUGP
route, which only hand-written or faulty files reach, then splits each
line's images to count them and builds its edge with the constructor.

A GUGP file in the serializer's exact form (the header ``GUGP v1``,
``k <k>``, ``n <n>``, then lines ``e <u> <v> <num>/<den> <k images>`` with
single spaces, a final line feed and no other characters than the
serializer writes) skips that loop: ``_bulk_gugp`` splits its lines into
the same five fields a few hundred lines per pass, transposes them into
columns, converts ``u`` and ``v`` a column at a time, each distinct weight
token once and the distinct image strings with one ``join``, ``split`` and
``int`` pass per few hundred strings (where the per-line route converts
each at its first line), and builds the permutations with
``core.permutations`` and the edges with ``core.gugp_edges``.  It raises
nothing: any other file, and every file with an error, goes to the per-line
route from the top, so messages and line numbers do not change.

Serializing renders each distinct weight, image tuple and relation object
once and reuses the text for every edge that holds that same object.  Its
texts are keyed by ``id``, which is safe while the instance being
serialized holds the object, as it does for the whole call: a GUGP or REL
body is then one list comprehension over the edges.  Images render through
one ``%d`` template per file, as every image of a file has the same length.
Weights keep the interpreter's int-digit limit, so a part that the parser
would refuse raises ``CapacityError`` before any text is returned.

T22 lines repeat a constraint string under 1.2% of the time, so each T22
line is split and checked whole; it shares weights by token and
permutations by image tuple, so equal images parse to one object, and it
renders each edge on its own, as TSP renders each pair.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import methodcaller
from typing import Iterable, Iterator, Sequence

from .core import (
    GugpEdge,
    GugpInstance,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    built_once,
    gugp_edges,
    permutations,
)
from .errors import CapacityError, ParseError
from .reductions import T22Edge, TspInstance, TwoToTwoInstance

Parsed = (
    GugpInstance | RelationalInstance | TwoToTwoInstance | TspInstance | tuple
)


def fmt_fraction(x: Fraction) -> str:
    """``num/den``, exact at any length, for printed values.  The
    interpreter's int-digit limit guards parsing; past it, the limit is
    lifted for this one conversion, whose size ``core.SCALED_BITS_CAP``
    bounds for every weight sum; file weights keep it."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return f"{x.numerator}/{x.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)


def _file_fraction(x: Fraction) -> str:
    """``num/den`` for a file, formatted with the int-digit limit in force,
    so that the file parses back: ``CapacityError`` names a part past it."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        digits = max(len(part.lstrip("-")) for part in fmt_fraction(x).split("/"))
        limit = sys.get_int_max_str_digits()
        message = f"weight part of {digits} digits exceeds the {limit}-digit limit"
        raise CapacityError(message) from None


def parse_fraction(token: str, line: int | None) -> Fraction:
    """A ``<num>/<den>`` token; ``line`` (None outside a file) tags errors."""
    parts = token.split("/")
    if len(parts) != 2:
        raise ParseError(f"expected <num>/<den>, got {token!r}", line)
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        _refuse_past_digit_limit("rational part", parts, line)
        raise ParseError(f"non-integer rational parts in {token!r}", line) from None
    if den <= 0:
        raise ParseError(f"denominator must be positive in {token!r}", line)
    return Fraction(num, den)


def _refuse_past_digit_limit(what: str, parts: Sequence[str], line: int | None) -> None:
    """Raise ``ParseError`` naming the digit count, not echoing the token,
    when one of the ``parts`` that ``int`` refused is past the interpreter's
    int-digit limit."""
    digits = max(sum(map(str.isdecimal, part)) for part in parts)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:
        message = f"{what} of {digits} digits exceeds the {limit}-digit limit"
        raise ParseError(message, line) from None


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        _refuse_past_digit_limit("integer", (token,), line)
        raise ParseError(f"expected integer, got {token!r}", line) from None


def _ints(tokens: Sequence[str], line: int) -> Iterable[int]:
    """The integers of ``tokens``, converted at once.  If one is not an
    integer, a generator instead that converts them in order and raises at the
    first bad token, so a caller that checks as it reads reports what a
    token-by-token parse would."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        return (_parse_int(t, line) for t in tokens)


def _parse_permutation(tokens: Sequence[str], line: int) -> Permutation:
    return Permutation(tuple(_ints(tokens, line)))


Records = Iterator[tuple[int, list[str]]]


def _records(text: str) -> Records:
    """The ``(line number, fields)`` of each line that is not blank or a
    comment.  The header line is split whole; every later line at most four
    times, so an edge line's constraint fields stay one raw string."""
    maxsplit = -1
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split(None, maxsplit)
        if fields and not fields[0].startswith("#"):
            yield number, fields
            maxsplit = 4


def _next(records: Records) -> tuple[int, list[str]]:
    record = next(records, None)
    if record is None:
        raise ParseError("unexpected end of file")
    return record


def _keyword_int(records: Records, keyword: str) -> int:
    line, fields = _next(records)
    if len(fields) != 2 or fields[0] != keyword:
        raise ParseError(f"expected '{keyword} <int>'", line)
    return _parse_int(fields[1], line)


def _edge_head(
    fields: list[str], line: int, weights: dict[str, Fraction]
) -> tuple[int, int, Fraction]:
    """The ``<u> <v> <num>/<den>`` after a record's keyword.  ``u v`` are
    converted with one guarded ``int`` pair and a weight token seen before
    is looked up in ``weights``; on a bad token, or on the first line of
    each distinct weight token, the three are read token by token in that
    order, so the first bad token is the one reported.  Every edge line of
    the per-line GUGP, REL, T22 and TSP parsers is read here."""
    try:
        return int(fields[1]), int(fields[2]), weights[fields[3]]
    except (ValueError, KeyError):
        u = _parse_int(fields[1], line)
        v = _parse_int(fields[2], line)
        return u, v, built_once(weights, fields[3], parse_fraction, fields[3], line)


# ---------------------------------------------------------------------------
# GUGP


def serialize_gugp(instance: GugpInstance) -> str:
    lines = ["GUGP v1", f"k {instance.k}", f"n {instance.n}"]
    edges = instance.edges
    weights = {id(e.weight): e.weight for e in edges}
    weights = {key: _file_fraction(w) for key, w in weights.items()}
    perms = {id(e.pi): e.pi for e in edges}
    # every image has k labels; the header's k alone sizes no template
    images = " ".join(["%d"] * instance.k) if edges else ""
    perms = {key: images % pi.image for key, pi in perms.items()}
    lines += [f"e {e.u} {e.v} {weights[id(e.weight)]} {perms[id(e.pi)]}" for e in edges]
    return "\n".join(lines) + "\n"


# every character a serialized GUGP body holds
_GUGP_BODY_BYTES = b"0123456789-/e \n"
_EDGE_FIELDS = methodcaller("split", " ", 4)
# Lines split per pass: a pass's rows and zip's iterators over them die
# before the cyclic GC's first generation (700 allocations by default) fills;
# with every row of a 50,000-line file alive at once, the collections it set
# off made the bulk route slower than the per-line one.  Distinct image
# strings are converted as many per pass, so one pass's label strings, not
# the whole file's, are alive at once.
_PASS_LINES = 256


def _bulk_gugp(text: str) -> GugpInstance | None:
    """A GUGP file in the serializer's exact form, parsed in whole-column
    passes, or None for any other file, including every file with an error,
    which ``_parse_gugp`` then reads from the top.

    The body may hold only the serializer's characters, so a single space
    and a line feed are its only separators: each line then splits into the
    same five fields as in ``_parse_gugp``, and the edges share weights and
    permutations exactly as there."""
    try:
        _, k_line, n_line, body = text.split("\n", 3)
        k, n = int(k_line[2:]), int(n_line[2:])
        if (
            (k_line, n_line) != (f"k {k}", f"n {n}")
            or k < 1
            or body.encode("ascii").translate(None, _GUGP_BODY_BYTES)
            or not body.endswith("\n")
        ):
            return None
        lines = body.split("\n")
        del lines[-1]  # the empty string after the last line feed
        us, vs, weight_tokens, image_strings = [], [], [], []
        for start in range(0, len(lines), _PASS_LINES):
            # a short row leaves fewer than five columns, which the
            # unpacking refuses
            tags, u, v, w, images = zip(
                *map(_EDGE_FIELDS, lines[start : start + _PASS_LINES])
            )
            if tags.count("e") != len(tags):
                return None
            us += map(int, u)
            vs += map(int, v)
            weight_tokens += w
            image_strings += images
        del lines
        weights = {t: parse_fraction(t, None) for t in dict.fromkeys(weight_tokens)}
        distinct = list(dict.fromkeys(image_strings))
        if {s.count(" ") for s in distinct} != {k - 1}:
            return None
        image_tuples = []
        for start in range(0, len(distinct), _PASS_LINES):
            # a pass's labels at once; zip over one iterator chunks them by k
            part = " ".join(distinct[start : start + _PASS_LINES]).split(" ")
            image_tuples += zip(*[map(int, part)] * k)
        perms = dict(zip(distinct, permutations(image_tuples)))
        weight_column = list(map(weights.__getitem__, weight_tokens))
        pi_column = list(map(perms.__getitem__, image_strings))
        # the tokens go before the edges are built
        del weight_tokens, image_strings
        return GugpInstance(n, k, gugp_edges(us, vs, weight_column, pi_column))
    except ValueError:  # ParseError, ValidationError and UnicodeError included
        return None


def _parse_gugp(records: Records) -> GugpInstance:
    k = _keyword_int(records, "k")
    n = _keyword_int(records, "n")
    edges = []
    weights: dict[str, Fraction] = {}
    perms: dict[str, Permutation] = {}
    for line, fields in records:
        images = fields[4].split() if len(fields) == 5 else []
        if k < 1 or fields[0] != "e" or len(images) != k:
            raise ParseError(f"expected 'e <u> <v> <num>/<den> <{k} images>'", line)
        u, v, weight = _edge_head(fields, line, weights)
        pi = built_once(perms, fields[4], _parse_permutation, images, line)
        edges.append(GugpEdge(u, v, weight, pi))
    return GugpInstance(n, k, edges)


# ---------------------------------------------------------------------------
# REL


def _relation_fields(rel: Relation) -> str:
    """``<m> <a1> <b1> ... <am> <bm>`` with the pairs in sorted order."""
    pairs = sorted(rel.pairs)
    return " ".join([str(len(pairs))] + [f"{a} {b}" for a, b in pairs])


def serialize_rel(instance: RelationalInstance) -> str:
    lines = [
        "REL v1",
        f"k1 {instance.k1}",
        f"k2 {instance.k2}",
        f"n {instance.n}",
        f"bipartite {1 if instance.bipartite else 0}",
    ]
    if instance.sides is not None:
        for v, side in enumerate(instance.sides):
            lines.append(f"s {v} {side}")
    edges = instance.edges
    weights = {id(e.weight): e.weight for e in edges}
    weights = {key: _file_fraction(w) for key, w in weights.items()}
    rels = {id(e.rel): e.rel for e in edges}
    rels = {key: _relation_fields(rel) for key, rel in rels.items()}
    lines += [f"e {e.u} {e.v} {weights[id(e.weight)]} {rels[id(e.rel)]}" for e in edges]
    return "\n".join(lines) + "\n"


def _parse_relation(text: str, line: int, k1: int, k2: int) -> Relation:
    """A relation from its ``<m> <a1> <b1> ... <am> <bm>`` fields."""
    tokens = text.split()
    m = _parse_int(tokens[0], line)
    if len(tokens) != 1 + 2 * m:
        raise ParseError(f"relation of {m} pairs needs {2 * m} label fields", line)
    labels = iter(_ints(tokens[1:], line))
    pairs: set[tuple[int, int]] = set()
    # zip over one iterator pairs consecutive labels
    for pair in zip(labels, labels):
        if pair in pairs:
            raise ParseError(f"duplicate relation pair ({pair[0]},{pair[1]})", line)
        pairs.add(pair)
    return Relation(k1, k2, frozenset(pairs))


def _parse_rel(records: Records) -> RelationalInstance:
    k1 = _keyword_int(records, "k1")
    k2 = _keyword_int(records, "k2")
    n = _keyword_int(records, "n")
    line, fields = _next(records)
    if len(fields) != 2 or fields[0] != "bipartite" or fields[1] not in ("0", "1"):
        raise ParseError("expected 'bipartite <0|1>'", line)
    bipartite = fields[1] == "1"
    sides: dict[int, str] = {}
    edges = []
    weights: dict[str, Fraction] = {}
    relations: dict[str, Relation] = {}
    for line, fields in records:
        if fields[0] == "s":
            if len(fields) != 3 or fields[2] not in ("V", "W"):
                raise ParseError("expected 's <v> <V|W>'", line)
            if not bipartite:
                raise ParseError("side line in a non-bipartite file", line)
            v = _parse_int(fields[1], line)
            if v in sides:
                raise ParseError(f"duplicate side line for vertex {v}", line)
            sides[v] = fields[2]
        elif fields[0] == "e":
            if len(fields) < 5:
                raise ParseError(
                    "expected 'e <u> <v> <num>/<den> <m> <a1> <b1> ...'", line
                )
            u, v, weight = _edge_head(fields, line, weights)
            rel = built_once(
                relations, fields[4], _parse_relation, fields[4], line, k1, k2
            )
            edges.append(RelEdge(u, v, weight, rel))
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line)
    side_tuple = None
    if bipartite:
        if len(sides) != n or sorted(sides) != list(range(n)):
            raise ParseError("bipartite file must assign a side to every vertex")
        side_tuple = tuple(sides[v] for v in range(n))
    return RelationalInstance(n, k1, k2, edges, side_tuple)


# ---------------------------------------------------------------------------
# T22


def serialize_t22(instance: TwoToTwoInstance) -> str:
    lines = ["T22 v1", f"k {instance.k}", f"n {instance.n}"]
    images = " ".join(["%d"] * 2 * instance.k) if instance.edges else ""
    for e in instance.edges:
        pu, pv = images % e.pi_u.image, images % e.pi_v.image
        lines.append(f"e {e.u} {e.v} {_file_fraction(e.weight)} pu {pu} pv {pv}")
    return "\n".join(lines) + "\n"


def _parse_t22(records: Records) -> TwoToTwoInstance:
    k = _keyword_int(records, "k")
    n = _keyword_int(records, "n")
    width = 2 * k
    edges = []
    weights: dict[str, Fraction] = {}
    # one object per image tuple, so equal pu and pv images share it
    perms: dict[tuple[str, ...], Permutation] = {}
    for line, fields in records:
        tokens = fields[4].split() if len(fields) == 5 else []
        if (
            k < 1
            or fields[0] != "e"
            or len(tokens) != 2 + 2 * width
            or tokens[0] != "pu"
            or tokens[1 + width] != "pv"
        ):
            raise ParseError(
                f"expected 'e <u> <v> <num>/<den> pu <{width} images> "
                f"pv <{width} images>'",
                line,
            )
        u, v, weight = _edge_head(fields, line, weights)
        pu_images = tuple(tokens[1 : 1 + width])
        pv_images = tuple(tokens[2 + width :])
        pu = built_once(perms, pu_images, _parse_permutation, pu_images, line)
        pv = built_once(perms, pv_images, _parse_permutation, pv_images, line)
        edges.append(T22Edge(u, v, weight, pu, pv))
    return TwoToTwoInstance(n, k, edges)


# ---------------------------------------------------------------------------
# TSP


def serialize_tsp(instance: TspInstance) -> str:
    lines = ["TSP v1", f"n {instance.n}"]
    for u, v, w in instance.weights:
        lines.append(f"w {u} {v} {_file_fraction(w)}")
    return "\n".join(lines) + "\n"


def _parse_tsp(records: Records) -> TspInstance:
    n = _keyword_int(records, "n")
    weights = []
    cache: dict[str, Fraction] = {}
    for line, fields in records:
        if fields[0] != "w" or len(fields) != 4:
            raise ParseError("expected 'w <u> <v> <num>/<den>'", line)
        u, v, weight = _edge_head(fields, line, cache)
        if u >= v:
            raise ParseError("pair weights require u < v", line)
        weights.append((u, v, weight))
    return TspInstance(n, tuple(weights))


# ---------------------------------------------------------------------------
# LAB


def serialize_labeling(labeling: tuple[int, ...]) -> str:
    lines = ["LAB v1", f"n {len(labeling)}"]
    for v, label in enumerate(labeling):
        lines.append(f"f {v} {label}")
    return "\n".join(lines) + "\n"


def _parse_lab(records: Records) -> tuple[int, ...]:
    n = _keyword_int(records, "n")
    assignments: dict[int, int] = {}
    for line, fields in records:
        if fields[0] != "f" or len(fields) != 3:
            raise ParseError("expected 'f <v> <label>'", line)
        v = _parse_int(fields[1], line)
        label = _parse_int(fields[2], line)
        if v in assignments:
            raise ParseError(f"duplicate assignment for vertex {v}", line)
        if label < 1:
            raise ParseError("labels are 1-indexed", line)
        assignments[v] = label
    if len(assignments) != n or sorted(assignments) != list(range(n)):
        raise ParseError("labeling must assign every vertex exactly once")
    return tuple(assignments[v] for v in range(n))


# ---------------------------------------------------------------------------
# dispatch

_HEADERS = {
    "GUGP": _parse_gugp,
    "REL": _parse_rel,
    "T22": _parse_t22,
    "TSP": _parse_tsp,
    "LAB": _parse_lab,
}


def parse(text: str) -> Parsed:
    if text.startswith("GUGP v1\n"):
        instance = _bulk_gugp(text)
        if instance is not None:
            return instance
    records = _records(text)
    line, fields = _next(records)
    if len(fields) != 2 or fields[1] != "v1" or fields[0] not in _HEADERS:
        raise ParseError(
            f"unknown header {' '.join(fields)!r}; "
            f"expected one of {sorted(_HEADERS)} with version v1",
            line,
        )
    return _HEADERS[fields[0]](records)


def serialize(obj: Parsed) -> str:
    if isinstance(obj, GugpInstance):
        return serialize_gugp(obj)
    if isinstance(obj, RelationalInstance):
        return serialize_rel(obj)
    if isinstance(obj, TwoToTwoInstance):
        return serialize_t22(obj)
    if isinstance(obj, TspInstance):
        return serialize_tsp(obj)
    if isinstance(obj, tuple):
        return serialize_labeling(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
