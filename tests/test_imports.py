"""Every module-level import in the library is used, and only `ring.py`
names the coefficient class `RationalFunction`.

No linter ships with the project, so this scans the source with the stdlib
`ast` module: a name bound by a top-level import must be read somewhere in
its module or be listed in `__all__`.  `from __future__ import annotations`
is exempt.  Every other module reaches coefficients through the questions
both coefficient classes answer and through `ring.laurent`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdgkit"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from fractions import Fraction\n"
              "from math import gcd as g, lcm\n"
              "__all__ = ['lcm']\n"
              "x = Fraction(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "g")]


def _names(node):
    """The names a single node binds or reads (not those of its children)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {n for a in node.names for n in (a.name.split(".")[-1], a.asname)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def names_rational_function(source: str):
    """Lines that import or name `RationalFunction` in code, quoted
    annotations included; docstrings and comments do not count."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        names = _names(node)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                for n in ast.walk(ast.parse(ann.value, mode="eval")):
                    names |= _names(n)
        if "RationalFunction" in names:
            lines.add(node.lineno)
    return sorted(lines)

@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "ring.py"),
                         ids=lambda p: p.name)
def test_only_ring_names_the_laurent_class(path):
    assert names_rational_function(path.read_text()) == []


def test_the_scan_finds_every_naming_of_the_laurent_class():
    source = ('"""A RationalFunction in a docstring does not count."""\n'
              "from .ring import RationalFunction as RF, laurent\n"
              "import mdgkit.ring\n"
              "def f(c: 'RationalFunction') -> int:\n"
              "    return mdgkit.ring.RationalFunction\n"
              "def g(c) -> 'list[RationalFunction]':\n"
              "    return laurent(c)  # RationalFunction in a comment\n")
    assert names_rational_function(source) == [2, 4, 5, 6]
