"""The benchmark's workloads: job pools, input set-up, jobs and their checks.

A workload is a set of job classes.  Each class has a fixed pool of input
specifications, most of them a few shapes with several generator seeds each.
A run's seed picks one item from each stratum of the pool sorted by pinned
cost, with its own seeded offset in every stratum, so every run has the same
mix of costs while the instances change with the seed.  Jobs of all classes
are interleaved in a seeded order.

Every pool item has pinned output digests, one per layer, and a pinned cost,
both taken at a commit whose outputs are known good (see ``pin.py``).
Because the pools are finite, every seed only draws items that have pins.

Set-up generates each selected input with ``generate`` and serializes it;
jobs start from that text, as the CLI does between commands.  Jobs call the
package only through ``Tracer.call``; checks run after the job, off the
clock.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Explicit so that later changes to the package's default cap cannot change
# the work a job asks for.  Every bundle check here needs at most 2.2M looks.
CASE_CAP = 10_000_000

DIGEST_LAYERS = (
    "fileformat",
    "reductions",
    "core",
    "evaluation",
    "solvers",
    "verification",
)


def unit(*tags: object) -> float:
    """Deterministic uniform number in [0, 1) for the given tags."""
    raw = hashlib.blake2b(repr(tags).encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big") / 2**64


@dataclass(frozen=True)
class JobClass:
    """One kind of job.

    ``pool`` holds input specifications, one job each.  A run draws
    ``picks`` of them.
    ``make_input`` turns a spec into texts (set-up); ``run`` is the timed
    job; ``check`` returns the digest material per layer and the list of
    failed checks.
    """

    name: str
    pool: tuple[dict, ...]
    picks: int
    make_input: Callable
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Job:
    cls: JobClass
    item: int

    @property
    def key(self) -> str:
        return f"{self.cls.name}/{self.item}"

    @property
    def input_key(self) -> tuple[str, int]:
        return (self.cls.name, self.item)

    @property
    def spec(self) -> dict:
        return self.cls.pool[self.item]


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[JobClass, ...]

    def plan(self, seed: int, cost: dict[str, list[int]]) -> list[Job]:
        """One pass of the run's job list: a fixed mix, seeded instances
        and order.

        ``cost`` gives each item's pinned cost.  Items are sorted by it and
        drawn one per equal-width stratum, so every seed gets the same
        spread of job costs.  Each stratum has its own offset, so a seed does
        not draw the dearest item of every stratum at once.
        """
        jobs = []
        for cls in self.classes:
            items = sorted(range(len(cls.pool)), key=lambda i: (cost[cls.name][i], i))
            step = len(items) / cls.picks
            for j in range(cls.picks):
                offset = unit("offset", self.name, cls.name, seed, j)
                jobs.append(Job(cls, items[int((j + offset) * step)]))
        return sorted(jobs, key=lambda job: unit("order", self.name, seed, job.key))


def digest_of(material: dict[str, list[str]]) -> str:
    """Comma-joined 8-hex digests, one per layer in DIGEST_LAYERS order."""
    parts = []
    for layer in DIGEST_LAYERS:
        lines = material.get(layer)
        parts.append(
            hashlib.sha256("\n".join(lines).encode()).hexdigest()[:8] if lines else ""
        )
    return ",".join(parts)


# ---------------------------------------------------------------------------
# helpers shared by jobs and checks


def _parse(gw, tr, text: str):
    tr.count("fileformat.parse.bytes", len(text))
    return tr.call("fileformat", "parse", gw.parse, text)


def _serialize(gw, tr, obj) -> str:
    text = tr.call("fileformat", "serialize", gw.serialize, obj)
    tr.count("fileformat.serialize.bytes", len(text))
    return text


def _serialize_labeling(gw, tr, labeling) -> str:
    text = tr.call("fileformat", "serialize", gw.serialize_labeling, labeling)
    tr.count("fileformat.serialize.bytes", len(text))
    return text


def _verify(tr, name: str, fn, *args, **kwargs):
    report = tr.call("verification", name, fn, *args, **kwargs)
    tr.count(f"verification.{name}.cases", report.cases)
    return report


def _metrics(gw, tr, instance):
    return tr.call("core", "metrics", gw.metrics, instance)


def _report_lines(report) -> list[str]:
    return [
        report.claim,
        report.verdict,
        str(report.cases),
        repr(report.witnesses),
        *report.notes,
    ]


def _metrics_lines(m) -> list[str]:
    return [str(m.w_plus), str(m.w_minus), str(m.sigma), str(m.ratio)]


def _edges_lines(instance) -> list[str]:
    return [f"{e.u} {e.v} {e.weight} {e.pi.image}" for e in instance.edges]


def _unsatisfied(instance, labeling) -> Fraction:
    """Plain-loop unsatisfied weight, independent of ``evaluation``."""
    total = Fraction(0)
    for e in instance.edges:
        if e.pi.image[labeling[e.u] - 1] != labeling[e.v]:
            total += e.weight
    return total


def _note(report, key: str) -> str | None:
    prefix = key + "="
    return next((n[len(prefix):] for n in report.notes if n.startswith(prefix)), None)


def _verdicts(reports) -> list[tuple[str, str]]:
    return [
        ("verification", f"{r.claim} verdict {r.verdict}") for r in reports if not r.passed
    ]


def _gen(gw, tr, **spec):
    result = tr.call("generators", "generate", gw.generate, gw.GenSpec(**spec))
    instance = result.instance
    edges = instance.weights if spec["family"] == "random-tsp" else instance.edges
    tr.count("generators.generate.edges_out", len(edges))
    return result


# ---------------------------------------------------------------------------
# gadget-verify: the README tour as library calls


def _planted_input(gw, tr, spec) -> dict[str, str]:
    result = _gen(gw, tr, family="planted-3col", seed=spec["seed"], n=spec["n"], m=spec["m"])
    return {
        "base": _serialize(gw, tr, result.instance),
        "planted": _serialize_labeling(gw, tr, result.planted),
    }


def _pwt1_run(gw, tr, inp, spec) -> dict:
    fold = spec["fold"]
    base = _parse(gw, tr, inp["base"])
    chi = _parse(gw, tr, inp["planted"])
    pairs = tuple(sorted((min(e.u, e.v), max(e.u, e.v)) for e in base.edges))
    repeated = tr.call("reductions", "repeat_max3cut", gw.repeat_max3cut, base.n, pairs, fold)
    rel = tr.call("reductions", "to_relational", repeated.to_relational)
    rel_text = _serialize(gw, tr, rel)
    rel_back = _parse(gw, tr, rel_text)
    repeated_back = tr.call(
        "reductions", "repeated_from_relational", gw.repeated_from_relational, rel_back
    )
    gadget, bundles = tr.call("reductions", "pwt1_gadget", gw.pwt1_gadget, repeated_back)
    tr.count("reductions.edges_out", len(repeated.edges) + len(gadget.edges))
    gadget_text = _serialize(gw, tr, gadget)
    gadget_back = _parse(gw, tr, gadget_text)
    reports = [
        _verify(
            tr, "check_bundle_exactly_one", gw.check_bundle_exactly_one,
            gadget_back, bundles, case_cap=CASE_CAP,
        ),
        _verify(
            tr, "check_indicator_weights", gw.check_indicator_weights,
            gadget_back, bundles, gw.coordinate_collision_predicate(fold), case_cap=CASE_CAP,
        ),
        _verify(
            tr, "check_gadget_metrics", gw.check_gadget_metrics,
            gadget_back, "pwt1", fold, bundles.source_count,
        ),
    ]
    return {
        "chi": chi, "repeated": repeated, "rel": rel, "rel_text": rel_text,
        "rel_back": rel_back, "repeated_back": repeated_back, "gadget": gadget,
        "gadget_text": gadget_text, "gadget_back": gadget_back, "reports": reports,
        "metrics": _metrics(gw, tr, gadget_back),
    }


def _pwt1_check(gw, spec, out):
    failures = _verdicts(out["reports"])
    if out["rel_back"] != out["rel"]:
        failures.append(("fileformat", "REL round trip changed the repeated game"))
    if out["gadget_back"] != out["gadget"]:
        failures.append(("fileformat", "GUGP round trip changed the gadget"))
    if out["repeated_back"] != out["repeated"]:
        failures.append(("reductions", "repeated_from_relational lost the repeated game"))
    lifted = gw.product_coloring(out["chi"], spec["fold"])
    if any((lifted[e.u], lifted[e.v]) not in e.rel.pairs for e in out["rel"].edges):
        failures.append(("reductions", "lifted planted coloring has relational value < 1"))
    if _unsatisfied(out["gadget"], lifted) != 0:
        failures.append(("reductions", "lifted planted coloring leaves gadget weight unsatisfied"))
    material = {
        "fileformat": [out["rel_text"], out["gadget_text"]],
        "reductions": [repr(out["repeated"].edges), *_edges_lines(out["gadget"])],
        "verification": [line for r in out["reports"] for line in _report_lines(r)],
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


def _t22_input(gw, tr, spec) -> dict[str, str]:
    result = _gen(
        gw, tr, family="random-t22", seed=spec["seed"], n=spec["n"], m=spec["m"],
        k=spec["k"], satisfiable=True,
    )
    return {
        "source": _serialize(gw, tr, result.instance),
        "planted": _serialize_labeling(gw, tr, result.planted),
    }


def _pwt_half_run(gw, tr, inp, spec) -> dict:
    source = _parse(gw, tr, inp["source"])
    planted = _parse(gw, tr, inp["planted"])
    gadget, bundles = tr.call(
        "reductions", "two2two_to_pwt_half", gw.two2two_to_pwt_half, source
    )
    tr.count("reductions.edges_out", len(gadget.edges))
    gadget_text = _serialize(gw, tr, gadget)
    gadget_back = _parse(gw, tr, gadget_text)
    reports = [
        _verify(
            tr, "check_bundle_exactly_one", gw.check_bundle_exactly_one,
            gadget_back, bundles, case_cap=CASE_CAP,
        ),
        _verify(
            tr, "check_indicator_weights", gw.check_indicator_weights,
            gadget_back, bundles, gw.pair_block_predicate(source), case_cap=CASE_CAP,
        ),
        _verify(
            tr, "check_gadget_metrics", gw.check_gadget_metrics,
            gadget_back, "pwt-half", source.k, len(source.edges),
        ),
    ]
    return {
        "planted": planted, "gadget": gadget, "gadget_text": gadget_text,
        "gadget_back": gadget_back, "reports": reports,
        "metrics": _metrics(gw, tr, gadget_back),
    }


def _pwt_half_check(gw, spec, out):
    failures = _verdicts(out["reports"])
    if out["gadget_back"] != out["gadget"]:
        failures.append(("fileformat", "GUGP round trip changed the gadget"))
    if _unsatisfied(out["gadget"], out["planted"]) != 0:
        failures.append(("reductions", "planted labeling leaves gadget weight unsatisfied"))
    material = {
        "fileformat": [out["gadget_text"]],
        "reductions": _edges_lines(out["gadget"]),
        "verification": [line for r in out["reports"] for line in _report_lines(r)],
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


def _cut_ceiling(n: int) -> int:
    """Most edges a 3-coloring of n vertices can cut (balanced classes)."""
    a, b, c = (n + 2) // 3, (n + 1) // 3, n // 3
    return a * b + a * c + b * c


def _fold2_pool() -> tuple[dict, ...]:
    # 16 bases for each edge count 4..14; 14 edges take fold-2 job times past
    # the fold-3 ones
    pool = []
    for i in range(176):
        m = 4 + i % 11  # base edges; the repeated game has 2m^2 edges
        n = 5 + int(4 * unit("fold2-n", i))  # 5..8 base vertices
        while _cut_ceiling(n) < m:
            n += 1
        pool.append({"fold": 2, "n": n, "m": m, "seed": int(unit("fold2-s", i) * 2**31)})
    return tuple(pool)


def _fold3_pool() -> tuple[dict, ...]:
    # three bases of 2 edges (0.6 s a job at the seed) to one of 3 edges (1.9 s)
    pool = []
    for i in range(32):
        m = 2 if i % 4 else 3
        n = 3 + int(4 * unit("fold3-n", i))  # 3..6
        pool.append({"fold": 3, "n": n, "m": m, "seed": int(unit("fold3-s", i) * 2**31)})
    return tuple(pool)


def _pwt_half_pool() -> tuple[dict, ...]:
    # 24 shapes (n 6..29, k 2..6) with 8 seeds each; job times run from 5 ms
    # to about 0.3 s and overlap the small fold-2 jobs
    pool = []
    for i in range(192):
        shape = i % 24
        n, k = 6 + shape, 2 + shape % 5
        pool.append({"n": n, "m": 2 * n - 2, "k": k, "seed": int(unit("t22-s", i) * 2**31)})
    return tuple(pool)


GADGET_VERIFY = Workload(
    "gadget-verify",
    (
        JobClass(
            "pwt1-fold2", _fold2_pool(), 11, _planted_input, _pwt1_run, _pwt1_check,
        ),
        JobClass(
            "pwt1-fold3", _fold3_pool(), 4, _planted_input, _pwt1_run, _pwt1_check,
        ),
        JobClass(
            "pwt-half", _pwt_half_pool(), 24, _t22_input, _pwt_half_run, _pwt_half_check,
        ),
    ),
)


# ---------------------------------------------------------------------------
# exhaustive: k^n enumerations on small instances


def _gugp_input(gw, tr, spec) -> dict[str, str]:
    kwargs = {k: v for k, v in spec.items() if k in ("seed", "n", "m", "k", "nwa")}
    if "max_ratio" in spec:
        kwargs["max_ratio"] = Fraction(spec["max_ratio"])
    result = _gen(gw, tr, family="random-gugp", **kwargs)
    return {"instance": _serialize(gw, tr, result.instance)}


def _strip_run(gw, tr, inp, spec) -> dict:
    instance = _parse(gw, tr, inp["instance"])
    best = tr.call("solvers", "brute_force", gw.brute_force, instance, gw.Objective.MIN_PWT)
    tr.count("solvers.brute_force.labelings", best.visited)
    labeling_text = _serialize_labeling(gw, tr, best.labeling)
    report = _verify(tr, "check_strip_bounds", gw.check_strip_bounds, instance)
    return {
        "instance": instance, "best": best, "labeling_text": labeling_text,
        "report": report, "metrics": _metrics(gw, tr, instance),
    }


def _strip_check(gw, spec, out):
    instance, best, report = out["instance"], out["best"], out["report"]
    failures = _verdicts([report])
    if best.visited != instance.k**instance.n:
        failures.append(("solvers", f"brute force visited {best.visited} labelings"))
    sigma = out["metrics"].sigma
    unsat = _unsatisfied(instance, best.labeling)
    if unsat / sigma != best.value:
        failures.append(("solvers", "brute-force value does not match its labeling"))
    if _note(report, "MIN_UNSAT_ORIGINAL") != f"{unsat.numerator}/{unsat.denominator}":
        failures.append(("verification", "strip-bounds minimum differs from brute force"))
    if gw.parse(out["labeling_text"]) != best.labeling:
        failures.append(("fileformat", "LAB round trip changed the labeling"))
    material = {
        "fileformat": [out["labeling_text"]],
        "solvers": [repr(best.labeling), str(best.value), str(best.visited)],
        "verification": _report_lines(report),
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


def _half_run(gw, tr, inp, spec) -> dict:
    instance = _parse(gw, tr, inp["instance"])
    report = _verify(
        tr, "check_half_guarantee", gw.check_half_guarantee, instance, seed=spec["start"]
    )
    return {"instance": instance, "report": report, "metrics": _metrics(gw, tr, instance)}


def _half_check(gw, spec, out):
    report = out["report"]
    failures = _verdicts([report])
    if _note(report, "OPTIMUM") in (None, "SKIPPED-CAPACITY"):
        failures.append(("verification", "half guarantee skipped the exhaustive optimum"))
    material = {
        "verification": _report_lines(report),
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


def _tsp_input(gw, tr, spec) -> dict[str, str]:
    result = _gen(gw, tr, family="random-tsp", seed=spec["seed"], n=spec["n"])
    return {"instance": _serialize(gw, tr, result.instance)}


def _tsp_run(gw, tr, inp, spec) -> dict:
    tsp = _parse(gw, tr, inp["instance"])
    report = _verify(tr, "check_tsp_equivalence", gw.check_tsp_equivalence, tsp)
    return {"tsp": tsp, "report": report}


def _tsp_optimum(tsp) -> Fraction:
    """Plain-loop minimum tour weight with vertex 0 first."""
    weight = {(u, v): w for u, v, w in tsp.weights}
    best = None
    for rest in itertools.permutations(range(1, tsp.n)):
        tour = (0, *rest, 0)
        total = sum(
            (weight[min(a, b), max(a, b)] for a, b in zip(tour, tour[1:])), Fraction(0)
        )
        if best is None or total < best:
            best = total
    return best


def _tsp_check(gw, spec, out):
    report = out["report"]
    failures = _verdicts([report])
    optimum = _tsp_optimum(out["tsp"])
    if _note(report, "TSP_OPTIMUM") != f"{optimum.numerator}/{optimum.denominator}":
        failures.append(("verification", "tour optimum differs from a plain scan"))
    return {"verification": _report_lines(report)}, failures


def _transfer_input(gw, tr, spec) -> dict[str, str]:
    result = _gen(
        gw, tr, family="random-t22", seed=spec["seed"], n=spec["n"], m=spec["m"], k=2,
        satisfiable=spec["satisfiable"],
    )
    return {"source": _serialize(gw, tr, result.instance)}


def _transfer_run(gw, tr, inp, spec) -> dict:
    source = _parse(gw, tr, inp["source"])
    unit_source = tr.call("reductions", "to_unit_relational", source.to_unit_relational)
    optimum = tr.call("solvers", "brute_force_relational", gw.brute_force_relational, unit_source)
    tr.count("solvers.brute_force_relational.labelings", optimum.visited)
    gadget, _ = tr.call("reductions", "two2two_to_pwt_half", gw.two2two_to_pwt_half, source)
    tr.count("reductions.edges_out", len(gadget.edges))
    report = _verify(
        tr, "check_value_transfer", gw.check_value_transfer, unit_source, gadget
    )
    return {
        "gadget": gadget, "optimum": optimum, "report": report,
        "metrics": _metrics(gw, tr, gadget),
    }


def _transfer_check(gw, spec, out):
    report, optimum = out["report"], out["optimum"]
    failures = _verdicts([report])
    value = f"{optimum.value.numerator}/{optimum.value.denominator}"
    if _note(report, "SOURCE_OPTIMUM") != value:
        failures.append(("solvers", "relational optimum differs from value transfer"))
    if spec["satisfiable"] and (value, _note(report, "GADGET_MIN_PWT")) != ("1/1", "0/1"):
        failures.append(("verification", "satisfiable source did not transfer to 0"))
    material = {
        "reductions": _edges_lines(out["gadget"]),
        "solvers": [repr(optimum.labeling), value, str(optimum.visited)],
        "verification": _report_lines(report),
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


# (k, n, m) in 24 shapes whose label space times edges grows geometrically
# from 1.7k to 57k, so job times vary continuously, then more slowly to 98k,
# so that the top of the run's job times, where its 90th percentile sits, is
# dense
_STRIP_SHAPES = (
    (3, 5, 7), (3, 5, 8), (3, 5, 10), (3, 5, 13), (3, 5, 15), (3, 5, 18),
    (3, 6, 7), (3, 6, 9), (3, 6, 11), (3, 6, 13), (3, 6, 16), (4, 5, 14),
    (4, 5, 17), (3, 7, 10), (3, 7, 12), (3, 7, 14), (3, 7, 17), (3, 7, 21),
    (4, 6, 14), (4, 6, 17), (4, 6, 20), (4, 6, 24), (4, 7, 5), (4, 7, 6),
)


def _strip_pool() -> tuple[dict, ...]:
    # 8 seeds per shape
    pool = []
    for i in range(8 * len(_STRIP_SHAPES)):
        k, n, m = _STRIP_SHAPES[i % len(_STRIP_SHAPES)]
        pool.append({
            "n": n, "m": m, "k": k, "max_ratio": "1/2",
            "seed": int(unit("strip-s", i) * 2**31),
        })
    return tuple(pool)


# (n, m) with k = 3: labelings times edges from 2k to 131k, at most 3^8
_HALF_SHAPES = ((5, 8), (6, 10), (7, 9), (7, 16), (8, 11), (8, 20))


def _half_pool() -> tuple[dict, ...]:
    # 16 seeds per shape, half of them from a seeded start
    pool = []
    for i in range(16 * len(_HALF_SHAPES)):
        n, m = _HALF_SHAPES[i % len(_HALF_SHAPES)]
        start = None if i // len(_HALF_SHAPES) % 2 else int(unit("half-start", i) * 2**31)
        pool.append({
            "n": n, "m": m, "k": 3, "nwa": True, "start": start,
            "seed": int(unit("half-s", i) * 2**31),
        })
    return tuple(pool)


def _tsp_pool() -> tuple[dict, ...]:
    return tuple(
        {"n": 5 + i % 2, "seed": int(unit("tsp-s", i) * 2**31)} for i in range(96)
    )


# (n, m, satisfiable) with k = 2: 4^6 gadget labelings, 20-40 ms a job at
# the seed, so that the middle of the run's job times is dense and its
# median does not sit in a gap between two shapes
_TRANSFER_SHAPES = tuple(
    (6, m, satisfiable) for m in (7, 8, 9, 10, 12) for satisfiable in (True, False)
)


def _transfer_pool() -> tuple[dict, ...]:
    # 10 seeds per shape
    pool = []
    for i in range(10 * len(_TRANSFER_SHAPES)):
        n, m, satisfiable = _TRANSFER_SHAPES[i % len(_TRANSFER_SHAPES)]
        pool.append({
            "n": n, "m": m, "satisfiable": satisfiable,
            "seed": int(unit("vt-s", i) * 2**31),
        })
    return tuple(pool)


EXHAUSTIVE = Workload(
    "exhaustive",
    (
        JobClass(
            "strip-bounds", _strip_pool(), 36, _gugp_input, _strip_run, _strip_check,
        ),
        JobClass(
            "half-guarantee", _half_pool(), 9, _gugp_input, _half_run, _half_check,
        ),
        JobClass(
            "tsp-equivalence", _tsp_pool(), 12, _tsp_input, _tsp_run, _tsp_check,
        ),
        JobClass(
            "value-transfer", _transfer_pool(), 15,
            _transfer_input, _transfer_run, _transfer_check,
        ),
    ),
)


# ---------------------------------------------------------------------------
# local-search: one pass over large sparse all-negative instances

LOCAL_STARTS = (None, 1, 2, 3)


def _local_run(gw, tr, inp, spec) -> dict:
    instance = _parse(gw, tr, inp["instance"])
    result = tr.call(
        "solvers", "local_search_half", gw.local_search_half, instance, seed=spec["start"]
    )
    tr.count("solvers.local_search_half.moves", result.visited)
    value = tr.call(
        "evaluation", "labeling_value", gw.labeling_value,
        instance, result.labeling, gw.Objective.MAX_NWA,
    )
    tr.count("evaluation.labeling_value.edges_scored", len(instance.edges))
    labeling_text = _serialize_labeling(gw, tr, result.labeling)
    return {
        "instance": instance, "result": result, "value": value,
        "labeling_text": labeling_text, "metrics": _metrics(gw, tr, instance),
    }


def _local_check(gw, spec, out):
    instance, result = out["instance"], out["result"]
    labels = result.labeling
    failures = []
    happy = [Fraction(0)] * instance.n
    total = [Fraction(0)] * instance.n
    restated = Fraction(0)
    for e in instance.edges:
        w = -e.weight
        total[e.u] += w
        total[e.v] += w
        if e.pi.image[labels[e.u] - 1] != labels[e.v]:
            happy[e.u] += w
            happy[e.v] += w
            restated += w
    if any(2 * h < t for h, t in zip(happy, total)):
        failures.append(("solvers", "local search ended with an unhappy vertex"))
    value = restated / sum(total, Fraction(0)) * 2
    if value < Fraction(1, 2) or value != result.value:
        failures.append(("solvers", f"local search value {result.value} (plain loop {value})"))
    if out["value"] != value:
        failures.append(("evaluation", f"labeling_value {out['value']} (plain loop {value})"))
    if gw.parse(out["labeling_text"]) != labels:
        failures.append(("fileformat", "LAB round trip changed the labeling"))
    material = {
        "fileformat": [out["labeling_text"]],
        "solvers": [repr(labels), str(result.value), str(result.visited)],
        "evaluation": [str(out["value"])],
        "core": _metrics_lines(out["metrics"]),
    }
    return material, failures


def _local_shapes() -> tuple[tuple[int, int], ...]:
    # (n, k), all-negative with mean degree 10.  k = 2 takes about four
    # times the moves of k = 3, so its instances stop at n = 200 to keep the
    # tail short.
    shapes = []
    for j in range(40):
        r = unit("local-k", j)
        k = 5 if r < 0.45 else 3 if r < 0.85 else 2
        n = 100 + round((100 if k == 2 else 200) * ((j + 0.5) / 40) ** 2)  # 100..300
        shapes.append((n, k))
    return tuple(shapes)


_LOCAL_SHAPES = _local_shapes()


def _local_pool() -> tuple[dict, ...]:
    # 6 seeds per shape, each from one of the starts in turn
    pool = []
    for i in range(6 * len(_LOCAL_SHAPES)):
        n, k = _LOCAL_SHAPES[i % len(_LOCAL_SHAPES)]
        pool.append({
            "n": n, "m": 5 * n, "k": k, "nwa": True,
            "start": LOCAL_STARTS[i % len(LOCAL_STARTS)],
            "seed": int(unit("local-s", i) * 2**31),
        })
    return tuple(pool)


LOCAL_SEARCH = Workload(
    "local-search",
    (
        JobClass(
            "local-search-half", _local_pool(), 60,
            _gugp_input, _local_run, _local_check,
        ),
    ),
)

WORKLOADS = {w.name: w for w in (GADGET_VERIFY, EXHAUSTIVE, LOCAL_SEARCH)}
