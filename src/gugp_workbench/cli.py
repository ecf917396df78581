"""Command-line front end tying generators, reductions, solvers, and
verifiers together over the text formats.

Output is stable KEY=VALUE lines on stdout; diagnostics go to stderr.  Exit
codes: 0 success (and verification PASS), 1 usage or I/O error, 2
verification FAIL, 3 capacity exceeded, 4 internal error (a bug in the
workbench).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .core import GugpInstance, RelationalInstance, metrics, scaled_weights
from .errors import (
    CapacityError,
    DegenerateInstanceError,
    InternalError,
    ObjectiveMismatchError,
    ParseError,
    UsageError,
    ValidationError,
)
from .evaluation import (
    Objective,
    labeling_value,
    relational_value,
    satisfied_weight,
    unsatisfied_weight,
)
from .fileformat import fmt_fraction, parse, parse_fraction, serialize, serialize_labeling
from .generators import FAMILIES, GenSpec, generate
from .reductions import (
    BundleMap,
    RelEdge,
    TspInstance,
    TwoToTwoInstance,
    all_coords_differ_relation,
    label_fold,
    pwt1_gadget,
    repeat_max3cut,
    repeated_from_relational,
    strip_negative,
    tsp_to_min_nwa,
    two2two_to_pwt_half,
)
from .solvers import DEFAULT_BRUTE_CAP, brute_force, brute_force_relational, local_search_half
from .verification import (
    VerifyReport,
    check_bundle_exactly_one,
    check_gadget_metrics,
    check_half_guarantee,
    check_indicator_weights,
    check_strip_bounds,
    check_tsp_equivalence,
    check_value_transfer,
    coordinate_collision_predicate,
    isolated_left_vertices,
    pair_block_predicate,
    smoothness,
)

USAGE_EXIT, FAIL_EXIT, CAPACITY_EXIT, INTERNAL_EXIT = 1, 2, 3, 4


def _read(path: str):
    return parse(Path(path).read_text(encoding="utf-8"))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _parse_ratio(token: str) -> Fraction:
    ratio = parse_fraction(token, None)
    if ratio < 0:
        raise UsageError("ratio must be non-negative with positive denominator")
    return ratio


def _objective(name: str) -> Objective:
    try:
        return Objective(name)
    except ValueError:
        raise UsageError(
            f"unknown objective {name!r}; choose from "
            f"{', '.join(o.value for o in Objective)}"
        ) from None


def _print_report(report: VerifyReport) -> None:
    print(f"CLAIM={report.claim}")
    print(f"VERDICT={report.verdict}")
    print(f"CASES={report.cases}")
    print(f"WITNESSES={len(report.witnesses)}")
    for bundle, where, expected, actual in report.witnesses[:10]:
        print(
            f"WITNESS=bundle:{bundle};at:{where};expected:{expected};actual:{actual}"
        )
    for note in report.notes:
        print(f"NOTE={note}")


def _finish_verify(reports: list[VerifyReport]) -> int:
    for report in reports:
        _print_report(report)
    ok = all(r.passed for r in reports)
    print(f"VERDICT={'PASS' if ok else 'FAIL'}")
    return 0 if ok else FAIL_EXIT


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        seed=args.seed,
        n=args.n,
        m=args.m,
        k=args.k,
        max_ratio=_parse_ratio(args.max_ratio) if args.max_ratio else None,
        nwa=args.nwa,
        satisfiable=args.satisfiable,
    )
    result = generate(spec)
    _write(args.out, serialize(result.instance))
    print(f"FAMILY={args.family}")
    print(f"SEED={args.seed}")
    print(f"OUT={args.out}")
    if args.planted_out:
        if result.planted is None:
            raise UsageError(f"family {args.family} plants no witness")
        _write(args.planted_out, serialize_labeling(result.planted))
        print(f"PLANTED_OUT={args.planted_out}")
    return 0


def _simple_graph_from_rel(instance: RelationalInstance) -> tuple[int, tuple]:
    pairs = []
    seen = set()
    for e in instance.edges:
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair in seen:
            raise ValidationError("base graph must be simple (duplicate edge)")
        seen.add(pair)
        pairs.append(pair)
    return instance.n, tuple(pairs)


def _cmd_reduce(args) -> int:
    source = _read(getattr(args, "in"))
    kind = args.kind
    if kind == "tsp-nwa":
        if not isinstance(source, TspInstance):
            raise UsageError("tsp-nwa expects a TSP file")
        gadget, bundles = tsp_to_min_nwa(source)
        _write(args.out, serialize(gadget))
    elif kind == "repeat3cut":
        if not isinstance(source, RelationalInstance) or source.k1 != 3:
            raise UsageError("repeat3cut expects a 3-cut REL file")
        n, pairs = _simple_graph_from_rel(source)
        repeated = repeat_max3cut(n, pairs, args.l)
        _write(args.out, serialize(repeated.to_relational()))
        print(f"OUT={args.out}")
        print(f"VERTICES={repeated.n}")
        print(f"EDGES={len(repeated.edges)}")
        return 0
    elif kind == "pwt1":
        if not isinstance(source, RelationalInstance):
            raise UsageError("pwt1 expects a repeated 3-cut REL file")
        gadget, bundles = pwt1_gadget(repeated_from_relational(source))
        _write(args.out, serialize(gadget))
    elif kind == "pwt-half":
        if not isinstance(source, TwoToTwoInstance):
            raise UsageError("pwt-half expects a T22 file")
        gadget, bundles = two2two_to_pwt_half(source)
        _write(args.out, serialize(gadget))
    elif kind == "strip-neg":
        if not isinstance(source, GugpInstance):
            raise UsageError("strip-neg expects a GUGP file")
        stripped = strip_negative(source)
        _write(args.out, serialize(stripped))
        print(f"OUT={args.out}")
        print(f"EDGES={len(stripped.edges)}")
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown reduction {kind!r}")
    print(f"OUT={args.out}")
    print(f"BUNDLES={bundles.source_count}")
    print(f"EDGES={bundles.total_edges}")
    return 0


def _cmd_solve(args) -> int:
    instance = _read(getattr(args, "in"))
    if args.mode == "brute":
        if isinstance(instance, GugpInstance):
            if not args.objective:
                raise UsageError("solve brute on a GUGP file needs --objective")
            result = brute_force(instance, _objective(args.objective), args.cap)
        elif isinstance(instance, RelationalInstance):
            if args.objective:
                raise UsageError(
                    "relational instances have a single objective; drop --objective"
                )
            result = brute_force_relational(instance, args.cap)
        else:
            raise UsageError("solve expects a GUGP or REL file")
        print(f"VAL={fmt_fraction(result.value)}")
        print(f"VISITED={result.visited}")
    else:
        if not isinstance(instance, GugpInstance):
            raise UsageError("local2 expects a GUGP file")
        if args.objective and args.objective != Objective.MAX_NWA.value:
            raise UsageError("local2 optimizes max-nwa only")
        result = local_search_half(instance, seed=args.seed)
        print(f"VAL={fmt_fraction(result.value)}")
        print(f"ITERATIONS={result.visited}")
        if result.visited > instance.n:
            print(f"NOTE=ITERATIONS_EXCEED_VERTICES={result.visited}>{instance.n}")
    if args.labeling:
        _write(args.labeling, serialize_labeling(result.labeling))
        print(f"LABELING_OUT={args.labeling}")
    return 0


def _cmd_eval(args) -> int:
    instance = _read(getattr(args, "in"))
    labeling = _read(args.labeling)
    if not isinstance(labeling, tuple):
        raise UsageError("--labeling must point at a LAB file")
    # compute every value before printing, so a failing input prints nothing
    if isinstance(instance, GugpInstance):
        values = {
            "SAT": satisfied_weight(instance, labeling),
            "UNSAT": unsatisfied_weight(instance, labeling),
        }
        if args.objective:
            objective = _objective(args.objective)
            values["VAL"] = labeling_value(instance, labeling, objective)
    elif isinstance(instance, RelationalInstance):
        if args.objective:
            raise UsageError(
                "relational instances have a single objective; drop --objective"
            )
        scale, weights = scaled_weights([e.weight for e in instance.edges])
        values = {
            "SAT": satisfied_weight(instance, labeling),
            "TOTAL": Fraction(sum(weights), scale),
            "VAL": relational_value(instance, labeling),
        }
    else:
        raise UsageError("eval expects a GUGP or REL file")
    for key, value in values.items():
        print(f"{key}={fmt_fraction(value)}")
    return 0


def _cmd_metrics(args) -> int:
    instance = _read(getattr(args, "in"))
    if not isinstance(instance, GugpInstance):
        raise UsageError("metrics expects a GUGP file")
    m = metrics(instance)
    print(f"WPLUS={fmt_fraction(m.w_plus)}")
    print(f"WMINUS={fmt_fraction(m.w_minus)}")
    print(f"SIGMA={fmt_fraction(m.sigma)}")
    print(f"RATIO={'UNDEFINED' if m.ratio is None else fmt_fraction(m.ratio)}")
    return 0


def _cmd_verify(args) -> int:
    kind = args.kind
    if kind == "smoothness":
        instance = _read(getattr(args, "in"))
        if not isinstance(instance, RelationalInstance):
            raise UsageError("smoothness expects a REL file")
        eta = smoothness(instance)
        skipped = isolated_left_vertices(instance)
        print(f"ETA={fmt_fraction(eta)}")
        print(f"ISOLATED_SKIPPED={len(skipped)}")
        for v in skipped:
            print(f"NOTE=ISOLATED_LEFT_VERTEX={v}")
        return 0

    if kind in ("gadget-pwt1", "gadget-pwt-half"):
        gadget = _read(getattr(args, "in"))
        if not isinstance(gadget, GugpInstance):
            raise UsageError(f"{kind} expects a GUGP file")
        # one bundle of gadget.k edges per unit-weight source edge
        if kind == "gadget-pwt1":
            family, param = "pwt1", label_fold(gadget.k)
            if not gadget.edges or len(gadget.edges) % gadget.k:
                raise UsageError(
                    f"gadget edge count must be a positive multiple of {gadget.k}"
                )
            predicate = coordinate_collision_predicate(param)
            differ = all_coords_differ_relation(param)
            source_edges = tuple(
                RelEdge(first.u, first.v, Fraction(1), differ)
                for first in gadget.edges[:: gadget.k]
            )
            source = RelationalInstance(gadget.n, gadget.k, gadget.k, source_edges)
        else:
            if not args.source:
                raise UsageError(
                    "gadget-pwt-half needs --source (the T22 file the gadget encodes)"
                )
            t22 = _read(args.source)
            if not isinstance(t22, TwoToTwoInstance):
                raise UsageError("--source must be a T22 file")
            width = 2 * t22.k
            if gadget.k != width:
                raise UsageError(
                    f"gadget has {gadget.k} labels but source expects {width}"
                )
            if len(gadget.edges) != width * len(t22.edges):
                raise UsageError(
                    "gadget edge count does not match source edges times bundle size"
                )
            for i, (e, first) in enumerate(zip(t22.edges, gadget.edges[::width])):
                if (first.u, first.v) != (e.u, e.v):
                    raise UsageError(f"bundle {i} endpoints do not match source edge")
            family, param = "pwt-half", t22.k
            predicate = pair_block_predicate(t22)
            source = t22.to_unit_relational()
        bundles = BundleMap.uniform(len(source.edges), gadget.k)
        reports = [
            check_bundle_exactly_one(gadget, bundles),
            check_indicator_weights(gadget, bundles, predicate),
            check_gadget_metrics(gadget, family, param, len(source.edges)),
        ]
        try:
            reports.append(check_value_transfer(source, gadget, args.cap))
        except CapacityError:
            print("NOTE=VALUE_TRANSFER=SKIPPED-CAPACITY")
        return _finish_verify(reports)

    instance = _read(getattr(args, "in"))
    if kind == "strip-bounds":
        if not isinstance(instance, GugpInstance):
            raise UsageError("strip-bounds expects a GUGP file")
        return _finish_verify([check_strip_bounds(instance, args.cap)])
    if kind == "half-guarantee":
        if not isinstance(instance, GugpInstance):
            raise UsageError("half-guarantee expects a GUGP file")
        return _finish_verify(
            [check_half_guarantee(instance, args.cap, seed=args.seed)]
        )
    if kind == "tsp-equiv":
        if not isinstance(instance, TspInstance):
            raise UsageError("tsp-equiv expects a TSP file")
        return _finish_verify([check_tsp_equivalence(instance, args.cap)])
    raise UsageError(f"unknown verification {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gugp-workbench",
        description="workbench for unique games with signed rational weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--max-ratio", dest="max_ratio")
    gen.add_argument("--nwa", action="store_true")
    gen.add_argument("--satisfiable", action="store_true")
    gen.add_argument("--out", required=True)
    gen.add_argument("--planted-out", dest="planted_out")
    gen.set_defaults(func=_cmd_gen)

    reduce_cmd = sub.add_parser("reduce", help="transform one instance family into another")
    reduce_cmd.add_argument(
        "kind",
        choices=("tsp-nwa", "repeat3cut", "pwt1", "pwt-half", "strip-neg"),
    )
    reduce_cmd.add_argument("--in", required=True)
    reduce_cmd.add_argument("--out", required=True)
    reduce_cmd.add_argument("--l", type=int, default=1, help="fold for repeat3cut")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("mode", choices=("brute", "local2"))
    solve.add_argument("--in", required=True)
    solve.add_argument("--objective")
    solve.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--labeling", help="write the winning labeling here (LAB)")
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("eval", help="evaluate a labeling file against an instance")
    ev.add_argument("--in", required=True)
    ev.add_argument("--labeling", required=True)
    ev.add_argument("--objective")
    ev.set_defaults(func=_cmd_eval)

    met = sub.add_parser("metrics", help="print weight aggregates of a GUGP file")
    met.add_argument("--in", required=True)
    met.set_defaults(func=_cmd_metrics)

    verify = sub.add_parser("verify", help="machine-check structural claims")
    verify.add_argument(
        "kind",
        choices=(
            "gadget-pwt1",
            "gadget-pwt-half",
            "strip-bounds",
            "half-guarantee",
            "tsp-equiv",
            "smoothness",
        ),
    )
    verify.add_argument("--in", required=True)
    verify.add_argument("--source", help="source T22 file for gadget-pwt-half")
    verify.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP)
    verify.add_argument("--seed", type=int)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return 0 if exit_request.code in (0, None) else USAGE_EXIT
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (
        ParseError,
        ValidationError,
        UsageError,
        DegenerateInstanceError,
        ObjectiveMismatchError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
