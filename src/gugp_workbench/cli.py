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

from .core import GugpInstance, RelationalInstance, capped_power_product, metrics
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
    satisfied_weight,
    unsatisfied_weight,
)
from .fileformat import fmt_fraction, parse, parse_fraction, serialize, serialize_labeling
from .generators import FAMILIES, GenSpec, generate
from .reductions import (
    BundleMap,
    TspInstance,
    TwoToTwoInstance,
    label_fold,
    max3cut_instance,
    pwt1_gadget,
    repeat_max3cut,
    repeated_from_relational,
    require_repeat_size,
    strip_negative,
    tsp_to_min_nwa,
    two2two_to_pwt_half,
)
from .solvers import DEFAULT_BRUTE_CAP, brute_force, local_search_half
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
# the instance types that ``solve brute`` and ``eval`` accept
_GAMES = (GugpInstance, RelationalInstance)


def _read(path: str, types: type | tuple[type, ...], message: str):
    """Parse the file at ``path``; ``UsageError(message)`` unless it is one
    of ``types``."""
    parsed = parse(Path(path).read_text(encoding="utf-8"))
    if not isinstance(parsed, types):
        raise UsageError(message)
    return parsed


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


def _game_objective(instance, name: str | None) -> Objective | None:
    """The objective ``instance`` is scored by: ``MAX_UGP`` for a REL game,
    which has no other, and the parsed ``--objective`` (or none) for a GUGP
    game."""
    if isinstance(instance, GugpInstance):
        return _objective(name) if name else None
    if name:
        raise UsageError(
            "relational instances have a single objective; drop --objective"
        )
    return Objective.MAX_UGP


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


# the input type each reduction accepts, and the message for any other file
_REDUCE_INPUT = {
    "tsp-nwa": (TspInstance, "tsp-nwa expects a TSP file"),
    "repeat3cut": (RelationalInstance, "repeat3cut expects a 3-cut REL file"),
    "pwt1": (RelationalInstance, "pwt1 expects a repeated 3-cut REL file"),
    "pwt-half": (TwoToTwoInstance, "pwt-half expects a T22 file"),
    "strip-neg": (GugpInstance, "strip-neg expects a GUGP file"),
}


def _cmd_reduce(args) -> int:
    kind = args.kind
    source = _read(getattr(args, "in"), *_REDUCE_INPUT[kind])
    counts = {}
    if kind == "repeat3cut":
        if source.k1 != 3:
            raise UsageError(_REDUCE_INPUT[kind][1])
        # the caps read counts alone, so an over-cap file is refused first
        require_repeat_size(source.n, len(source.edges), args.l)
        base = repeated_from_relational(source)
        repeated = repeat_max3cut(base.base_n, base.edges, args.l)
        out, counts["VERTICES"] = repeated.to_relational(), repeated.n
    elif kind == "strip-neg":
        out = strip_negative(source)
    else:
        if kind == "tsp-nwa":
            out, bundles = tsp_to_min_nwa(source)
        elif kind == "pwt1":
            out, bundles = pwt1_gadget(repeated_from_relational(source))
        else:
            out, bundles = two2two_to_pwt_half(source)
        counts["BUNDLES"] = bundles.source_count
    _write(args.out, serialize(out))
    print(f"OUT={args.out}")
    for key, count in counts.items():
        print(f"{key}={count}")
    print(f"EDGES={len(out.edges)}")
    return 0


def _cmd_solve(args) -> int:
    path = getattr(args, "in")
    if args.mode == "brute":
        instance = _read(path, _GAMES, "solve expects a GUGP or REL file")
        objective = _game_objective(instance, args.objective)
        if objective is None:
            raise UsageError("solve brute on a GUGP file needs --objective")
        result = brute_force(instance, objective, args.cap)
        print(f"VAL={fmt_fraction(result.value)}")
        print(f"VISITED={result.visited}")
    else:
        instance = _read(path, GugpInstance, "local2 expects a GUGP file")
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
    instance = _read(getattr(args, "in"), _GAMES, "eval expects a GUGP or REL file")
    labeling = _read(args.labeling, tuple, "--labeling must point at a LAB file")
    objective = _game_objective(instance, args.objective)
    # compute every value before printing, so a failing input prints nothing
    values = {"SAT": satisfied_weight(instance, labeling)}
    if isinstance(instance, GugpInstance):
        values["UNSAT"] = unsatisfied_weight(instance, labeling)
    else:
        values["TOTAL"] = metrics(instance).sigma
    if objective is not None:
        values["VAL"] = labeling_value(instance, labeling, objective)
    for key, value in values.items():
        print(f"{key}={fmt_fraction(value)}")
    return 0


def _cmd_metrics(args) -> int:
    instance = _read(getattr(args, "in"), GugpInstance, "metrics expects a GUGP file")
    m = metrics(instance)
    print(f"WPLUS={fmt_fraction(m.w_plus)}")
    print(f"WMINUS={fmt_fraction(m.w_minus)}")
    print(f"SIGMA={fmt_fraction(m.sigma)}")
    print(f"RATIO={'UNDEFINED' if m.ratio is None else fmt_fraction(m.ratio)}")
    return 0


# the input type each verification accepts, and the message for any other file
_VERIFY_INPUT = {
    "gadget-pwt1": (GugpInstance, "gadget-pwt1 expects a GUGP file"),
    "gadget-pwt-half": (GugpInstance, "gadget-pwt-half expects a GUGP file"),
    "strip-bounds": (GugpInstance, "strip-bounds expects a GUGP file"),
    "half-guarantee": (GugpInstance, "half-guarantee expects a GUGP file"),
    "tsp-equiv": (TspInstance, "tsp-equiv expects a TSP file"),
    "smoothness": (RelationalInstance, "smoothness expects a REL file"),
}


def _cmd_verify(args) -> int:
    kind = args.kind
    instance = _read(getattr(args, "in"), *_VERIFY_INPUT[kind])
    if kind == "smoothness":
        eta = smoothness(instance)
        skipped = isolated_left_vertices(instance)
        print(f"ETA={fmt_fraction(eta)}")
        print(f"ISOLATED_SKIPPED={len(skipped)}")
        for v in skipped:
            print(f"NOTE=ISOLATED_LEFT_VERTEX={v}")
        return 0
    if kind == "strip-bounds":
        return _finish_verify([check_strip_bounds(instance, args.cap)])
    if kind == "half-guarantee":
        return _finish_verify(
            [check_half_guarantee(instance, args.cap, seed=args.seed)]
        )
    if kind == "tsp-equiv":
        return _finish_verify([check_tsp_equivalence(instance, args.cap)])

    # a gadget: one bundle of gadget.k edges per unit-weight source edge
    gadget = instance
    if kind == "gadget-pwt1":
        family, param = "pwt1", label_fold(gadget.k)
        if not gadget.edges or len(gadget.edges) % gadget.k:
            raise UsageError(
                f"gadget edge count must be a positive multiple of {gadget.k}"
            )
        relation_of = coordinate_collision_predicate(param)
        firsts = tuple((e.u, e.v) for e in gadget.edges[:: gadget.k])
        source = max3cut_instance(gadget.n, firsts, param)
    else:
        if not args.source:
            raise UsageError(
                "gadget-pwt-half needs --source (the T22 file the gadget encodes)"
            )
        t22 = _read(args.source, TwoToTwoInstance, "--source must be a T22 file")
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
        relation_of = pair_block_predicate(t22)
        # value transfer's first gate, asked before the source's game is built
        fits = capped_power_product(((width, t22.n),), args.cap)
        source = t22.to_unit_relational() if fits else None
    bundles = BundleMap(len(gadget.edges) // gadget.k, gadget.k)
    reports = [
        check_bundle_exactly_one(gadget, bundles),
        check_indicator_weights(gadget, bundles, relation_of),
        check_gadget_metrics(gadget, family, param, bundles.source_count),
    ]
    if source is not None:
        try:
            reports.append(check_value_transfer(source, gadget, args.cap))
        except CapacityError:
            source = None
    if source is None:
        print("NOTE=VALUE_TRANSFER=SKIPPED-CAPACITY")
    return _finish_verify(reports)


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
    reduce_cmd.add_argument("kind", choices=tuple(_REDUCE_INPUT))
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
    verify.add_argument("kind", choices=tuple(_VERIFY_INPUT))
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
        UnicodeDecodeError,  # an input file that is not UTF-8 text
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
