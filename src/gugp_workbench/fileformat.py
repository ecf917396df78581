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
constraint string: each distinct string is split, converted and validated on
the line where it first appears, and every later line that repeats it shares
the object built there.  Weights are cached by their token the same way.
A line that repeats a seen constraint string and weight token costs one
bounded split, one guarded ``int`` pair for ``u v``, one dict lookup per
cached part and the edge constructor, and calls no parsing helper.  A line
with a new string or weight token calls one helper per new part, and a bad
token sends the line down the per-token route, so every message and line
number is the one a token-by-token parse reports.
Serializing renders each distinct weight, image tuple and relation object
once and reuses the text for every edge that holds that same object.  Its
caches are keyed by ``id``, which is safe while the instance being
serialized holds the object, as it does for the whole call.  Both directions
share ``core.built_once``.

T22 lines repeat a constraint string under 1.2% of the time, so each T22
line is split and checked whole; it shares weights by token and
permutations by image tuple, so equal images parse to one object, and it
renders each edge on its own.  TSP files hold at most a few dozen lines:
each is read through ``_edge_head`` and rendered on its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    GugpEdge,
    GugpInstance,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    built_once,
)
from .errors import ParseError
from .reductions import T22Edge, TspInstance, TwoToTwoInstance

Parsed = (
    GugpInstance | RelationalInstance | TwoToTwoInstance | TspInstance | tuple
)


def fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(token: str, line: int | None) -> Fraction:
    """A ``<num>/<den>`` token; ``line`` (None outside a file) tags errors."""
    parts = token.split("/")
    if len(parts) != 2:
        raise ParseError(f"expected <num>/<den>, got {token!r}", line)
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer rational parts in {token!r}", line) from None
    if den <= 0:
        raise ParseError(f"denominator must be positive in {token!r}", line)
    return Fraction(num, den)


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
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


def _images(pi: Permutation) -> str:
    return " ".join(map(str, pi.image))


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
    """The ``<u> <v> <num>/<den>`` after a record's keyword, token by token
    in that order, so the first bad token is the one reported.  The GUGP,
    REL and T22 parsers convert ``u v`` with one guarded ``int`` pair and
    look the weight token up inline, and come here only when that fails: on
    a bad token, or on the first line of each distinct weight token.  The
    TSP parser reads every line here."""
    u = _parse_int(fields[1], line)
    v = _parse_int(fields[2], line)
    return u, v, built_once(weights, fields[3], parse_fraction, fields[3], line)


# ---------------------------------------------------------------------------
# GUGP


def serialize_gugp(instance: GugpInstance) -> str:
    lines = ["GUGP v1", f"k {instance.k}", f"n {instance.n}"]
    weights: dict[int, str] = {}
    perms: dict[int, str] = {}
    for e in instance.edges:
        weight = built_once(weights, id(e.weight), fmt_fraction, e.weight)
        images = built_once(perms, id(e.pi), _images, e.pi)
        lines.append(f"e {e.u} {e.v} {weight} {images}")
    return "\n".join(lines) + "\n"


def _parse_gugp(records: Records) -> GugpInstance:
    k = _keyword_int(records, "k")
    n = _keyword_int(records, "n")
    edges = []
    weights: dict[str, Fraction] = {}
    perms: dict[str, Permutation] = {}
    for line, fields in records:
        # a string seen before had k images; a new one is split here
        pi = perms.get(fields[-1])
        images = fields[4].split() if pi is None and len(fields) == 5 else []
        if (
            k < 1
            or fields[0] != "e"
            or len(fields) != 5
            or (pi is None and len(images) != k)
        ):
            raise ParseError(
                f"expected 'e <u> <v> <num>/<den> <{k} images>'", line
            )
        try:
            u, v = int(fields[1]), int(fields[2])
            weight = weights[fields[3]]
        except (ValueError, KeyError):
            u, v, weight = _edge_head(fields, line, weights)
        if pi is None:
            pi = perms[fields[4]] = _parse_permutation(images, line)
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
    weights: dict[int, str] = {}
    relations: dict[int, str] = {}
    for e in instance.edges:
        weight = built_once(weights, id(e.weight), fmt_fraction, e.weight)
        rel = built_once(relations, id(e.rel), _relation_fields, e.rel)
        lines.append(f"e {e.u} {e.v} {weight} {rel}")
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
            try:
                u, v = int(fields[1]), int(fields[2])
                weight = weights[fields[3]]
            except (ValueError, KeyError):
                u, v, weight = _edge_head(fields, line, weights)
            rel = relations.get(fields[4])
            if rel is None:
                rel = relations[fields[4]] = _parse_relation(fields[4], line, k1, k2)
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
    for e in instance.edges:
        weight, pu, pv = fmt_fraction(e.weight), _images(e.pi_u), _images(e.pi_v)
        lines.append(f"e {e.u} {e.v} {weight} pu {pu} pv {pv}")
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
        try:
            u, v = int(fields[1]), int(fields[2])
            weight = weights[fields[3]]
        except (ValueError, KeyError):
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
        lines.append(f"w {u} {v} {fmt_fraction(w)}")
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
