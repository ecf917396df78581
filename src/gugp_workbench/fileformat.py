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
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    GugpEdge,
    GugpInstance,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
)
from .errors import ParseError
from .reductions import T22Edge, TspInstance, TwoToTwoInstance

Parsed = (
    GugpInstance | RelationalInstance | TwoToTwoInstance | TspInstance | tuple
)


def fmt_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_fraction(token: str, line: int) -> Fraction:
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


def _records(text: str) -> list[tuple[int, list[str]]]:
    records = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append((number, stripped.split()))
    return records


class _Reader:
    def __init__(self, text: str):
        self.records = _records(text)
        self.position = 0

    def next(self) -> tuple[int, list[str]]:
        if self.position >= len(self.records):
            raise ParseError("unexpected end of file")
        record = self.records[self.position]
        self.position += 1
        return record

    def keyword_int(self, keyword: str) -> int:
        line, fields = self.next()
        if len(fields) != 2 or fields[0] != keyword:
            raise ParseError(f"expected '{keyword} <int>'", line)
        return _parse_int(fields[1], line)

    def remaining(self) -> list[tuple[int, list[str]]]:
        rest = self.records[self.position :]
        self.position = len(self.records)
        return rest


# ---------------------------------------------------------------------------
# GUGP


def serialize_gugp(instance: GugpInstance) -> str:
    lines = ["GUGP v1", f"k {instance.k}", f"n {instance.n}"]
    for e in instance.edges:
        images = " ".join(str(i) for i in e.pi.image)
        lines.append(f"e {e.u} {e.v} {fmt_fraction(e.weight)} {images}")
    return "\n".join(lines) + "\n"


def _parse_gugp(reader: _Reader) -> GugpInstance:
    k = reader.keyword_int("k")
    n = reader.keyword_int("n")
    edges = []
    # one shared Permutation per distinct image line
    perms: dict[tuple[str, ...], Permutation] = {}
    for line, fields in reader.remaining():
        if k < 1 or fields[0] != "e" or len(fields) != 4 + k:
            raise ParseError(
                f"expected 'e <u> <v> <num>/<den> <{k} images>'", line
            )
        u = _parse_int(fields[1], line)
        v = _parse_int(fields[2], line)
        weight = _parse_fraction(fields[3], line)
        tokens = tuple(fields[4:])
        if tokens not in perms:
            perms[tokens] = Permutation(tuple(_parse_int(t, line) for t in tokens))
        edges.append(GugpEdge(u, v, weight, perms[tokens]))
    return GugpInstance(n, k, tuple(edges))


# ---------------------------------------------------------------------------
# REL


def serialize_rel(instance: RelationalInstance) -> str:
    lines = [
        "REL v1",
        f"k1 {instance.k1}",
        f"k2 {instance.k2}",
        f"n {instance.n}",
        f"bipartite {1 if instance.bipartite else 0}",
    ]
    if instance.bipartite:
        assert instance.sides is not None
        for v, side in enumerate(instance.sides):
            lines.append(f"s {v} {side}")
    for e in instance.edges:
        pairs = sorted(e.rel.pairs)
        flat = " ".join(f"{a} {b}" for a, b in pairs)
        head = f"e {e.u} {e.v} {fmt_fraction(e.weight)} {len(pairs)}"
        lines.append(f"{head} {flat}" if flat else head)
    return "\n".join(lines) + "\n"


def _parse_rel(reader: _Reader) -> RelationalInstance:
    k1 = reader.keyword_int("k1")
    k2 = reader.keyword_int("k2")
    n = reader.keyword_int("n")
    line, fields = reader.next()
    if len(fields) != 2 or fields[0] != "bipartite" or fields[1] not in ("0", "1"):
        raise ParseError("expected 'bipartite <0|1>'", line)
    bipartite = fields[1] == "1"
    sides: dict[int, str] = {}
    edges = []
    for line, fields in reader.remaining():
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
            u = _parse_int(fields[1], line)
            v = _parse_int(fields[2], line)
            weight = _parse_fraction(fields[3], line)
            m = _parse_int(fields[4], line)
            if len(fields) != 5 + 2 * m:
                raise ParseError(
                    f"relation of {m} pairs needs {2 * m} label fields", line
                )
            pairs: set[tuple[int, int]] = set()
            for i in range(m):
                a = _parse_int(fields[5 + 2 * i], line)
                b = _parse_int(fields[6 + 2 * i], line)
                if (a, b) in pairs:
                    raise ParseError(f"duplicate relation pair ({a},{b})", line)
                pairs.add((a, b))
            edges.append(RelEdge(u, v, weight, Relation(k1, k2, frozenset(pairs))))
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line)
    side_tuple = None
    if bipartite:
        if len(sides) != n or sorted(sides) != list(range(n)):
            raise ParseError("bipartite file must assign a side to every vertex")
        side_tuple = tuple(sides[v] for v in range(n))
    return RelationalInstance(n, k1, k2, tuple(edges), bipartite, side_tuple)


# ---------------------------------------------------------------------------
# T22


def serialize_t22(instance: TwoToTwoInstance) -> str:
    lines = ["T22 v1", f"k {instance.k}", f"n {instance.n}"]
    for e in instance.edges:
        pu = " ".join(str(i) for i in e.pi_u.image)
        pv = " ".join(str(i) for i in e.pi_v.image)
        lines.append(f"e {e.u} {e.v} {fmt_fraction(e.weight)} pu {pu} pv {pv}")
    return "\n".join(lines) + "\n"


def _parse_t22(reader: _Reader) -> TwoToTwoInstance:
    k = reader.keyword_int("k")
    n = reader.keyword_int("n")
    width = 2 * k
    edges = []
    for line, fields in reader.remaining():
        if (
            k < 1
            or fields[0] != "e"
            or len(fields) != 6 + 2 * width
            or fields[4] != "pu"
            or fields[5 + width] != "pv"
        ):
            raise ParseError(
                f"expected 'e <u> <v> <num>/<den> pu <{width} images> "
                f"pv <{width} images>'",
                line,
            )
        u = _parse_int(fields[1], line)
        v = _parse_int(fields[2], line)
        weight = _parse_fraction(fields[3], line)
        pu = tuple(_parse_int(t, line) for t in fields[5 : 5 + width])
        pv = tuple(_parse_int(t, line) for t in fields[6 + width : 6 + 2 * width])
        edges.append(T22Edge(u, v, weight, Permutation(pu), Permutation(pv)))
    return TwoToTwoInstance(n, k, tuple(edges))


# ---------------------------------------------------------------------------
# TSP


def serialize_tsp(instance: TspInstance) -> str:
    lines = ["TSP v1", f"n {instance.n}"]
    for u, v, w in instance.weights:
        lines.append(f"w {u} {v} {fmt_fraction(w)}")
    return "\n".join(lines) + "\n"


def _parse_tsp(reader: _Reader) -> TspInstance:
    n = reader.keyword_int("n")
    weights = []
    for line, fields in reader.remaining():
        if fields[0] != "w" or len(fields) != 4:
            raise ParseError("expected 'w <u> <v> <num>/<den>'", line)
        u = _parse_int(fields[1], line)
        v = _parse_int(fields[2], line)
        if u >= v:
            raise ParseError("pair weights require u < v", line)
        weights.append((u, v, _parse_fraction(fields[3], line)))
    return TspInstance(n, tuple(weights))


# ---------------------------------------------------------------------------
# LAB


def serialize_labeling(labeling: tuple[int, ...]) -> str:
    lines = ["LAB v1", f"n {len(labeling)}"]
    for v, label in enumerate(labeling):
        lines.append(f"f {v} {label}")
    return "\n".join(lines) + "\n"


def _parse_lab(reader: _Reader) -> tuple[int, ...]:
    n = reader.keyword_int("n")
    assignments: dict[int, int] = {}
    for line, fields in reader.remaining():
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
    reader = _Reader(text)
    line, fields = reader.next()
    if len(fields) != 2 or fields[1] != "v1" or fields[0] not in _HEADERS:
        raise ParseError(
            f"unknown header {' '.join(fields)!r}; "
            f"expected one of {sorted(_HEADERS)} with version v1",
            line,
        )
    return _HEADERS[fields[0]](reader)


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
