"""No module under src/ reads another module's private names."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genusfields"


def foreign_private_reads(sources):
    """(module, line, name) of each `x._name` (one leading underscore,
    not a dunder) whose receiver is not `self` or `cls` and whose name the
    module itself does not define.  A module defines the names of its
    functions and classes, the names it assigns and the attributes it
    assigns, so `fld._bits` counts as its own only where `_bits` is set."""
    out = []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        out += [(module, node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and re.fullmatch(r"_[^_]\w*", node.attr)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))
                and node.attr not in defined]
    return sorted(out)


def test_the_scan_flags_only_foreign_private_reads():
    sources = {
        "kernel": ("class Field:\n"
                   "    def __init__(self):\n"
                   "        self._bits = 0\n"
                   "    def _grow(self):\n"
                   "        return self._bits\n"
                   "def widen(f):\n"
                   "    f._grow()\n"
                   "    return f.__dict__, f._bits\n"),
        "user": ("import kernel\n"
                 "_cache = {}\n"
                 "def width(f, g):\n"
                 "    g._cache = _cache\n"
                 "    return f._bits + len(g._cache), kernel._helper()\n"
                 "def ok(cls):\n"
                 "    return cls._anything, kernel.widen, kernel.__name__\n"),
    }
    assert foreign_private_reads(sources) == [
        ("user", 5, "_bits"), ("user", 5, "_helper")]


def test_no_module_reads_another_modules_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert foreign_private_reads(sources) == []
