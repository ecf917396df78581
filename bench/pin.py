"""Regenerate digests.json: for every pool item of every workload, the
pinned per-layer output digests and the pinned cost.

Digests define correct output for the benchmark, and costs decide how runs
sample the pools, so regenerate them only at a commit whose outputs are
known good, and only when a workload's pools change:

    python3 bench/pin.py --workload exhaustive

Digests of the workloads not named are kept.  Every entry must pass its
checks before it is pinned.  An item's cost is the median of COST_ROUNDS
timings at reference speed (see ``run.reference``), in microseconds; the
rounds go over the whole pool in turn, so a slow spell of the machine does
not fall on all timings of one item.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run
from tracing import Tracer
from workloads import DIGEST_LAYERS, WORKLOADS, Job, digest_of

PINS = Path(__file__).resolve().parent / "digests.json"
COST_ROUNDS = 3


def pin_workload(gw, workload) -> dict[str, dict[str, list]]:
    tr = Tracer(timed=False, origin=0.0)
    pinned = {}
    for cls in workload.classes:
        inputs = [cls.make_input(gw, tr, spec) for spec in cls.pool]
        digests = []
        for index, spec in enumerate(cls.pool):
            out = cls.run(gw, tr, inputs[index], spec)
            material, failures = cls.check(gw, spec, out)
            if failures:
                raise SystemExit(f"{workload.name} {Job(cls, index).key}: {failures}")
            digests.append(digest_of(material))
        times: list[list[float]] = [[] for _ in cls.pool]
        for _ in range(COST_ROUNDS):
            ref = run.reference()
            for index, spec in enumerate(cls.pool):
                gc.collect()
                start = perf_counter()
                cls.run(gw, tr, inputs[index], spec)
                elapsed = perf_counter() - start
                after = run.reference()
                times[index].append(run.scaled(elapsed, ref, after))
                ref = after
        cost_us = [round(statistics.median(t) * 1e6) for t in times]
        print(f"{workload.name}/{cls.name}: {len(digests)} items pinned")
        pinned[cls.name] = {"digests": digests, "cost_us": cost_us}
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    gw, _ = run.import_package()
    pins = (
        json.loads(PINS.read_text(encoding="utf-8"))
        if PINS.exists()
        else {"layers": list(DIGEST_LAYERS), "workloads": {}}
    )
    for name in args.workload or sorted(WORKLOADS):
        pins["workloads"][name] = pin_workload(gw, WORKLOADS[name])
    PINS.write_text(json.dumps(pins, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
