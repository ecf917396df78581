"""Spans and work counters recorded around calls into the package's layers.

The benchmark wraps every call it makes into ``gugp_workbench`` with
``Tracer.call``.  Work counts and error counts are kept on every run, so an
untraced and a traced pass over the same jobs can be compared count for
count.  Clock reads and spans are recorded only when the tracer is timed.
Spans stay in memory until ``write_spans`` saves them at the end of a run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, timed: bool, origin: float):
        self.timed = timed
        self.origin = origin
        self.spans: list[dict] = []
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._job: object = None
        self._parent: int | None = None

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call into ``layer``.

        A call that raises counts as an error of its layer and re-raises.
        """
        key = f"{layer}.{name}"
        self.counts[f"{key}.calls"] += 1
        start = perf_counter() if self.timed else 0.0
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            if self.timed:
                end = perf_counter()
                self.busy[key] += end - start
                self._span(name, layer, start, end)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def begin_job(self, job_id: object) -> float:
        self._job = job_id
        self._parent = len(self.spans) if self.timed else None
        if self.timed:
            # placeholder, completed by end_job so children can name it
            self.spans.append({})
        return perf_counter()

    def end_job(self, start: float) -> float:
        end = perf_counter()
        if self.timed and self._parent is not None:
            self.spans[self._parent] = self._record(
                self._parent, "job", "bench", start, end, None
            )
        self._job = None
        self._parent = None
        return end - start

    def layer_busy(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for key, t in self.busy.items() if key.startswith(prefix))

    def _span(self, name: str, layer: str, start: float, end: float) -> None:
        self.spans.append(
            self._record(len(self.spans), name, layer, start, end, self._parent)
        )

    def _record(self, span_id, name, layer, start, end, parent) -> dict:
        return {
            "id": span_id,
            "name": name,
            "layer": layer,
            "start": start - self.origin,
            "end": end - self.origin,
            "job": self._job,
            "parent": parent,
        }


def write_spans(path: Path, provenance: dict, passes: dict[str, Tracer]) -> int:
    """Write a provenance line, then the spans of each tracer as JSON lines;
    return the number of spans."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as out:
        out.write(json.dumps({"provenance": provenance}) + "\n")
        for label, tracer in passes.items():
            for span in tracer.spans:
                out.write(json.dumps({"pass": label, **span}) + "\n")
                written += 1
    return written
