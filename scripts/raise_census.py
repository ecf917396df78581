#!/usr/bin/env python3
"""Census of the ``raise`` statements in ``src/`` that no test reaches.

Runs the tier-1 suite in this process with a line tracer on every frame of
``src/gugp_workbench`` code that holds a ``raise`` statement, then lists
each raise whose line never ran.  Tracing slows every example, so the
hypothesis profile drops the deadline, and it draws derandomized examples
so that two runs reach the same raises.

Exits 1 if the suite fails, or if an unreached raise is missing from
``EXEMPT``, each of whose entries says why no in-process test can reach it.

Usage:
    python3 scripts/raise_census.py
"""

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gugp_workbench"

# (file, statement as ``ast.unparse`` prints it) -> why no test reaches it
EXEMPT = {
    ("__main__.py", "raise SystemExit(main())"): (
        "the `python -m` entry point; only child-process tests run it"
    ),
    ("cli.py", "raise SystemExit(main())"): (
        "the script entry point; only child-process tests run it"
    ),
    (
        "generators.py",
        "raise UsageError('could not draw a coloring with enough bichromatic pairs')",
    ): "_planted_3col's coloring budget, enormous for any feasible request",
    (
        "generators.py",
        "raise UsageError('could not collect enough bichromatic edges')",
    ): "_planted_3col's edge budget, enormous for any feasible request",
}


class HypothesisProfile:
    """Loads the census's hypothesis profile once pytest has imported its
    plugins, so that no module it rewrites is imported first."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("raise-census", deadline=None, derandomize=True)
        settings.load_profile("raise-census")


def raise_sites() -> dict[tuple[str, int], str]:
    """Every ``raise`` in the package: (file, line) -> its unparsed text."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                sites[str(path), node.lineno] = ast.unparse(node)
    return sites


def traced_suite(sites) -> tuple[int, set[tuple[str, int]]]:
    """Run the suite; return pytest's exit code and the raise lines run."""
    import pytest

    wanted: dict[str, set[int]] = {}
    for file, line in sites:
        wanted.setdefault(file, set()).add(line)
    reached: set[tuple[str, int]] = set()
    tracers: dict[object, object] = {}

    def tracer_for(code):
        lines = wanted.get(code.co_filename)
        if lines and lines.intersection(line for _, _, line in code.co_lines()):
            file = code.co_filename

            def local(frame, event, _arg):
                if event == "line" and frame.f_lineno in lines:
                    reached.add((file, frame.f_lineno))
                return local

            return local
        return None

    def on_call(frame, event, _arg):
        code = frame.f_code
        if code not in tracers:
            tracers[code] = tracer_for(code)
        return tracers[code]

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        args = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        code = pytest.main(args, plugins=[HypothesisProfile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    # the suite's child processes import the package too
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    paths = [src, os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    sites = raise_sites()
    code, reached = traced_suite(sites)
    unreached = sorted(set(sites) - reached, key=lambda s: (Path(s[0]).name, s[1]))
    unexempt = 0
    print(f"RAISES={len(sites)} UNREACHED={len(unreached)}")
    for file, line in unreached:
        key = (Path(file).name, sites[file, line])
        why = EXEMPT.get(key)
        unexempt += why is None
        print(f"{key[0]}:{line}: {key[1]}  [{why or 'NOT EXEMPT'}]")
    if code:
        print(f"pytest exited {code}")
    return 1 if code or unexempt else 0


if __name__ == "__main__":
    raise SystemExit(main())
