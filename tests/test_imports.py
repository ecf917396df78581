"""Every name a module of the package imports is read somewhere in it, no
module imports a private name from a sibling, and every name imported from
a sibling is defined there, so no module re-exports another's name.

``__init__.py`` is skipped by the first rule: it imports names to re-export
them.  A name counts as read when the module's syntax tree loads it
anywhere, as a name or as the base of an attribute, annotations included.
A ``_``-prefixed name is private to the module that defines it, so what one
module offers another, such as the solvers' exact-search substrate, is
public.

A census holds the other direction: every top-level function and class of
the package is read, as a name or an attribute, somewhere in ``src/``,
``scripts/`` or ``bench/``; ``__init__.py``'s re-exports are imports, not
reads, so they do not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gugp_workbench"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_the_package_has_modules_to_scan():
    assert {p.name for p in MODULES} >= {"core.py", "cli.py", "verification.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from typing import Sequence\n"
        "def f(x: Sequence) -> int:\n"
        "    return gcd(x[0], x[1]) + os.sep.count('/')\n"
    )
    assert unread_imports(source) == ["line 3: least"]


def private_sibling_imports(source: str) -> list[str]:
    """Each ``_``-prefixed name imported from a sibling module, relatively
    or through the package's own name."""
    return [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_from_a_sibling(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_a_private_sibling_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "from ._private import public\n"
        "from .solvers import Leaf, _scan\n"
        "from gugp_workbench.core import _hidden\n"
        "from os.path import _get_sep\n"
    )
    assert private_sibling_imports(source) == [
        "line 3: _scan from .solvers",
        "line 4: _hidden from gugp_workbench.core",
    ]


def top_level_names(source: str) -> set[str]:
    """The names a module's own top-level statements define: functions,
    classes and assignment targets, not imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            )
    return names


def reexported_sibling_imports(
    source: str, siblings: dict[str, set[str]]
) -> list[str]:
    """Each name imported from a sibling module, relatively or through the
    package's own name, that the sibling does not define at its top level;
    ``siblings`` maps each module's stem to its ``top_level_names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != PACKAGE.name:
                continue
            parts = parts[1:]
        defined = siblings[".".join(parts) or "__init__"]
        origin = "." * node.level + (node.module or "")
        found += [
            f"line {node.lineno}: {alias.name} from {origin}"
            for alias in node.names
            if alias.name not in defined
        ]
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_each_sibling_name_from_its_definer(path):
    siblings = {
        p.stem: top_level_names(p.read_text(encoding="utf-8")) for p in ALL_MODULES
    }
    source = path.read_text(encoding="utf-8")
    assert reexported_sibling_imports(source, siblings) == []


def test_a_reexported_sibling_name_is_reported():
    siblings = {
        "core": top_level_names(
            "from fractions import Fraction\n"
            "class RelEdge: ...\n"
            "LIMIT, CAP = 3, 4\n"
            "scale: int = 2\n"
        ),
        "reductions": top_level_names(
            "from .core import RelEdge\ndef build(): ...\n"
        ),
    }
    source = (
        "from __future__ import annotations\n"
        "from .core import RelEdge, CAP, scale\n"
        "from .reductions import build, RelEdge as Edge\n"
        "from gugp_workbench.core import Fraction\n"
        "from os.path import join\n"
    )
    assert reexported_sibling_imports(source, siblings) == [
        "line 3: RelEdge from .reductions",
        "line 4: Fraction from gugp_workbench.core",
    ]


# the encode/decode helpers are the reference oracles the tests hold the
# builders' tables to; no builder calls them (see the reductions docstring)
EXEMPT = {"encode_vertex_tuple", "encode_label_tuple", "decode_label"}


def read_names(source: str) -> set[str]:
    """The names a source loads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_definitions(definers: list[str], readers: list[str]) -> set[str]:
    """The top-level functions and classes of ``definers`` that no source in
    ``readers`` loads."""
    read = set().union(*map(read_names, readers))
    return {
        node.name
        for source in definers
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    }


def test_every_function_and_class_is_read():
    readers = [*ALL_MODULES, *ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py")]
    assert unread_definitions(
        [p.read_text(encoding="utf-8") for p in ALL_MODULES],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == EXEMPT


def test_an_unread_definition_is_reported():
    definer = (
        "import math\n"
        "class Used: ...\n"
        "def helper(): return math.pi\n"
        "def orphan(): return helper()\n"
        "def method_only(): ...\n"
        "async def waiter(): ...\n"
    )
    # an import is no read, and a definer reads its own helpers
    reader = "from pkg import orphan, waiter\nUsed()\nobj.method_only()\n"
    assert unread_definitions([definer], [definer, reader]) == {"orphan", "waiter"}
