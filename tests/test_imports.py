"""Every name a module of the package imports is read somewhere in it, and
no module imports a private name from a sibling.

``__init__.py`` is skipped by the first rule: it imports names to re-export
them.  A name counts as read when the module's syntax tree loads it
anywhere, as a name or as the base of an attribute, annotations included.
A ``_``-prefixed name is private to the module that defines it, so what one
module offers another, such as the solvers' exact-search substrate, is
public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gugp_workbench"
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
