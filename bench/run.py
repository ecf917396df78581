"""Benchmark for gugp_workbench: one workload per process, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

One client runs jobs back to back in this single-threaded process; each job
calls the package's public functions in-process and is checked after it
ends.  With ``--trace 0`` the run measures whole passes of the job list for
at least ``--seconds`` seconds and prints the end-to-end metrics, with every
time scaled to a fixed reference speed (see ``reference``).  With
``--trace 1`` it runs one pass with every job twice, untraced and traced,
checks that every work count repeats exactly, runs the README tour through
the CLI, and prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, write_spans  # noqa: E402
from workloads import DIGEST_LAYERS, WORKLOADS, Job, digest_of  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# enough samples that at least ten lie beyond the 90th percentile
MIN_JOBS = 110
# set-ups per run: at least 5, more until they take two seconds, at most 15
SETUP_REPS = (5, 2.0, 15)
# The reference loop: its two parts take 12.9-15.7 ms together on a 2 GHz
# Xeon core (5th to 95th percentile of 300 tries within one minute); the
# figures are scaled to REF_S.
REF_FRACTION_STEPS = 2_000
REF_INTEGER_STEPS = 40_000
REF_S = 0.012


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    seconds: float
    failures: list[tuple[str, str]]
    scaled: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def reference() -> float:
    """Time a fixed loop of the kind of work the package does: exact
    ``Fraction`` sums, tuples and dict stores, then plain integer steps.  It
    never calls the package.

    On a shared host the machine's speed drifts by up to 1.8x within
    seconds, and a job or a set-up slows with it.  The benchmark times this
    loop before and after each one and scales the wall time by REF_S over
    the loop's mean, so its figures are seconds at one fixed speed of the
    machine.  A change to the program moves them as it moves wall time.
    In slow spells the ``Fraction`` part slows about 8% more than the jobs
    and the integer part 7-20% less, so the loop mixes the two, 2 to 1 in
    time.
    """
    start = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, REF_FRACTION_STEPS + 1):
        total += Fraction(i % 13 + 1, i % 7 + 1)
        table[i % 97, i % 89] = (total, i)
    acc = 0
    for i in range(REF_INTEGER_STEPS):
        acc += i * i % 7
    return perf_counter() - start


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / ((ref_before + ref_after) / 2)


def import_package():
    """Import gugp_workbench afresh from this checkout; return it and the time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "gugp_workbench"]:
        del sys.modules[name]
    start = perf_counter()
    gw = importlib.import_module("gugp_workbench")
    elapsed = perf_counter() - start
    if Path(gw.__file__).resolve().parent != (SRC / "gugp_workbench").resolve():
        raise BenchError(f"imported gugp_workbench from {gw.__file__}, not from {SRC}")
    return gw, elapsed


def set_up(gw, plan: list[Job], tr: Tracer) -> dict:
    start = tr.begin_job("setup")
    inputs = {}
    for job in plan:
        if job.input_key not in inputs:
            inputs[job.input_key] = job.cls.make_input(gw, tr, job.spec)
    tr.end_job(start)
    return inputs


def inputs_digest(inputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(inputs):
        h.update(repr(key).encode())
        for name in sorted(inputs[key]):
            h.update(name.encode() + b"\0" + inputs[key][name].encode() + b"\0")
    return h.hexdigest()


def run_job(gw, tr: Tracer, job: Job, inputs: dict, pinned: list[str]) -> Outcome:
    """Run one job, then check it against the oracles and its pinned digests."""
    gc.collect()
    start = tr.begin_job(job.key)
    try:
        out = job.cls.run(gw, tr, inputs[job.input_key], job.spec)
    except Exception as exc:  # the job fails; the run goes on
        return Outcome(tr.end_job(start), [("bench", f"{job.key} raised {exc!r}")])
    seconds = tr.end_job(start)
    try:
        material, failures = job.cls.check(gw, job.spec, out)
    except Exception as exc:
        return Outcome(seconds, [("bench", f"{job.key} check raised {exc!r}")])
    want = pinned[job.item].split(",")
    got = digest_of(material).split(",")
    for layer, w, g in zip(DIGEST_LAYERS, want, got):
        if w != g:
            failures.append((layer, f"{job.key} {layer} output differs from the pinned digest"))
    for layer, _ in failures:
        tr.errors[layer] += 1
    return Outcome(seconds, failures)


def run_paired(gw, tracers, plan, inputs, pins) -> tuple[list[Outcome], list[Outcome]]:
    """Run every job untraced and traced, alternating which goes first so
    that drift and warm-up fall on both sides alike."""
    plain, traced = [], []
    for i, job in enumerate(plan):
        sides = [(tracers["plain"], plain), (tracers["traced"], traced)]
        for tr, outcomes in sides if i % 2 == 0 else reversed(sides):
            outcomes.append(run_job(gw, tr, job, inputs, pins[job.cls.name]))
    return plain, traced


def run_for(gw, tr, plan, inputs, pins, seconds: float) -> list[list[Outcome]]:
    """Closed loop over whole passes of the job list: as many passes as the
    first one's wall time fits into ``seconds``, and enough for MIN_JOBS
    jobs.  Whole passes keep the job mix the same on every seed.  The
    reference loop runs between jobs, and each job is scaled by the loops on
    either side of it."""
    passes: list[list[Outcome]] = []
    wanted = -(-MIN_JOBS // len(plan))
    start = perf_counter()
    ref = reference()
    while len(passes) < wanted:
        outcomes = []
        for job in plan:
            outcome = run_job(gw, tr, job, inputs, pins[job.cls.name])
            after = reference()
            outcome.scaled = scaled(outcome.seconds, ref, after)
            ref = after
            outcomes.append(outcome)
        passes.append(outcomes)
        if len(passes) == 1:
            wanted = max(wanted, round(seconds / (perf_counter() - start)))
    return passes


# ---------------------------------------------------------------------------
# README tour through the CLI (traced run only)


def tour_steps(readme: str) -> list[tuple[list[str], list[str]]]:
    """Commands and shown output of the README's tour section."""
    section = readme.split("## Thirty-second tour", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"```text\n(.*?)```", section, re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + " " + lines[i].strip()
            i += 1
            shown = []
            while i < len(lines) and not lines[i].startswith("$ "):
                shown.append(lines[i])
                i += 1
            while shown and not shown[-1].strip():
                shown.pop()
            steps.append((shlex.split(command), shown))
    return steps


def output_matches(shown: list[str], actual: list[str]) -> bool:
    """Shown output must match; a '...' line stands for omitted lines."""
    if not shown:
        return True
    if "..." not in shown:
        return actual == shown
    cut = shown.index("...")
    head, tail = shown[:cut], shown[cut + 1:]
    return (
        len(actual) >= len(head) + len(tail)
        and actual[: len(head)] == head
        and actual[len(actual) - len(tail):] == tail
    )


def run_tour() -> tuple[float, int, int]:
    """Run the tour; return its wall time, command count and error count."""
    steps = tour_steps((ROOT / "README.md").read_text(encoding="utf-8"))
    work = OUT_DIR / "tour"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    errors = 0
    elapsed = 0.0
    for argv, shown in steps:
        if argv[0] != "gugp-workbench":
            raise BenchError(f"unexpected README tour command {argv[0]!r}")
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "gugp_workbench", *argv[1:]],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed += perf_counter() - start
        if done.returncode != 0 or not output_matches(shown, done.stdout.splitlines()):
            errors += 1
            print(f"# tour mismatch: {shlex.join(argv)} exit {done.returncode}", file=sys.stderr)
    return elapsed, len(steps), errors


# ---------------------------------------------------------------------------
# metrics and provenance


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def layer_metric(name: str, tracers: dict[str, Tracer], specials: dict) -> float:
    if name in specials:
        return specials[name]
    head, _, tail = name.rpartition(".")
    if tail == "errors":
        return sum(tr.errors[head] for tr in tracers.values())
    tr = tracers["setup"] if name.startswith("generators.") else tracers["traced"]
    if tail == "busy_s":
        return tr.busy[head] if "." in head else tr.layer_busy(head)
    if tail.endswith("_per_s"):
        counted = "bytes" if tail == "mib_per_s" else tail[: -len("_per_s")]
        busy = tr.busy[head]
        rate = tr.counts[f"{head}.{counted}"] / busy if busy else 0.0
        return rate / 2**20 if tail == "mib_per_s" else rate
    return tr.counts[name]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gugp_workbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def load_pins(workload: str) -> dict[str, dict[str, list]]:
    path = Path(__file__).resolve().parent / "digests.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    if pins["layers"] != list(DIGEST_LAYERS):
        raise BenchError("digests.json lists other layers than the benchmark")
    return pins["workloads"][workload]


def set_up_repeatedly(plan: list[Job]):
    """Set up several times (SETUP_REPS); time each from the fresh import to
    the last serialized input, scaled by the reference loops around it."""
    least, enough_s, most = SETUP_REPS
    setup_times, import_times, digests = [], [], set()
    wall = 0.0
    ref = reference()
    while len(setup_times) < least or (wall < enough_s and len(setup_times) < most):
        start = perf_counter()
        gw, import_s = import_package()
        inputs = set_up(gw, plan, Tracer(timed=False, origin=PROCESS_START))
        elapsed = perf_counter() - start
        after = reference()
        setup_times.append(scaled(elapsed, ref, after))
        ref = after
        wall += elapsed
        import_times.append(import_s)
        digests.add(inputs_digest(inputs))
    if len(digests) != 1:
        raise BenchError("set-up produced different inputs on repetition")
    return gw, inputs, setup_times, import_times, digests.pop()


def end_to_end_values(passes, setup_times, import_times) -> tuple[dict, dict]:
    done = [o for p in passes for o in p]
    # failed jobs count only when nothing passed, so a broken program still
    # gets a result line (with correct=false)
    counted = any(o.ok for o in done)
    ok = [o for o in done if o.ok or not counted]
    ok_times = [o.scaled for o in ok]
    wall = [o.seconds for o in ok]
    busy = sum(o.seconds for o in done)
    # every pass runs the same jobs, so pass rates compare like for like and
    # their median shrugs off a pass hit by a burst of load
    rates = [sum(o.ok for o in p) / sum(o.scaled for o in p) for p in passes]
    # the median job: each job's median over the passes, then the median of
    # those, so one slow sample of a job near the middle does not move it
    samples = [[o.scaled for o in runs if o.ok or not counted] for runs in zip(*passes)]
    per_job = [statistics.median(t) for t in samples if t]
    p90 = percentile_90(ok_times)
    values = {
        "jobs_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "jobs_per_s": f"median of {len(passes)} passes; jobs={len(ok_times)} "
        f"busy_s={busy:.3f} (wall)",
        "job_p50_s": f"samples={len(ok_times)} jobs={len(per_job)} passes={len(passes)}; "
        f"wall {statistics.median(wall):.6g} s",
        "job_p90_s": f"samples={len(ok_times)} beyond={sum(1 for t in ok_times if t > p90)}; "
        f"wall {percentile_90(wall):.6g} s",
        "setup_s": f"median of {len(setup_times)} set-ups; import median "
        f"{statistics.median(import_times):.4f} s (wall)",
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec = load_spec()
    if not (SRC / "gugp_workbench" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    pinned = load_pins(workload.name)
    pins = {name: p["digests"] for name, p in pinned.items()}
    plan = workload.plan(args.seed, {name: p["cost_us"] for name, p in pinned.items()})
    traced = bool(args.trace)
    gw, inputs, setup_times, import_times, inputs_sha = set_up_repeatedly(plan)

    # one more set-up, traced, gives the generators' per-layer numbers
    tracers = {"setup": Tracer(timed=traced, origin=PROCESS_START)}
    if traced:
        set_up(gw, plan, tracers["setup"])
        tracers["plain"] = Tracer(timed=False, origin=PROCESS_START)
        tracers["traced"] = Tracer(timed=True, origin=PROCESS_START)
        plain, timed = run_paired(gw, tracers, plan, inputs, pins)
        outcomes = plain + timed
        counts_repeat = tracers["plain"].counts == tracers["traced"].counts
        tour_s, tour_commands, tour_errors = run_tour()
        tracers["tour"] = Tracer(timed=False, origin=PROCESS_START)
        tracers["tour"].errors["cli"] = tour_errors
    else:
        tracers["run"] = Tracer(timed=False, origin=PROCESS_START)
        passes = run_for(gw, tracers["run"], plan, inputs, pins, args.seconds)
        outcomes = timed = [o for p in passes for o in p]
    busy = sum(o.seconds for o in timed)
    attempted, failed = len(outcomes), sum(1 for o in outcomes if not o.ok)
    correct = failed == 0

    provenance = {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": commit(), "src_sha256": src_digest()[:16], "workload": workload.name,
        "seed": args.seed, "trace": args.trace, "jobs": attempted,
        "job_list": len(plan), "distinct_inputs": len(inputs), "inputs_sha256": inputs_sha,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for layer, message in [f for o in outcomes for f in o.failures][:20]:
        print(f"# FAILED [{layer}] {message}")

    if traced:
        correct = correct and counts_repeat and tour_errors == 0
        entries = spec["per_layer"]
        specials = {
            "cli.import_s": statistics.median(import_times),
            "cli.tour_s": tour_s,
            "bench.jobs_busy_s": busy,
            "bench.trace_overhead_ratio": busy / sum(o.seconds for o in plain),
        }
        values = {m["name"]: layer_metric(m["name"], tracers, specials) for m in entries}
        notes = {}
        counts = repr(sorted(tracers["traced"].counts.items())).encode()
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        spans = write_spans(
            trace_file, provenance, {"setup": tracers["setup"], "traced": tracers["traced"]}
        )
        print(
            f"# trace work_counts_repeat={counts_repeat} "
            f"work_counts_sha256={hashlib.sha256(counts).hexdigest()[:16]} "
            f"tour_commands={tour_commands} tour_errors={tour_errors} "
            f"spans={spans} file={trace_file.relative_to(ROOT)}"
        )
    else:
        entries = spec["end_to_end"]
        values, notes = end_to_end_values(passes, setup_times, import_times)

    for m in entries:
        name = m["name"]
        value = values[name] if isinstance(values[name], int) else f"{values[name]:.6g}"
        print(f"{name}={value} {m['unit']} {notes.get(name, '')}".rstrip())
    if not traced:
        print(f"failed_ratio={failed / attempted:.6g} ratio failed={failed} attempted={attempted}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
