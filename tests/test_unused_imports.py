"""Every name a module under src/ or tests/ imports is used in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of each name bound by an import and never read: a
    module's reads are its Name nodes (`a` of `a.b.c` too) and the strings
    in its `__all__`.  `from __future__` imports bind nothing, and what a
    star import binds cannot be read off the source."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names
                      if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_sees_every_import_form():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json as js\n"
              "from math import gcd, lcm as l\nfrom x import *\n"
              "from y import kept\n__all__ = ['kept']\nos.sep\n")
    assert unused_imports(source) == [(3, "js"), (4, "gcd"), (4, "l")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
