"""No module under src/ encodes JSON with `indent`: the stdlib's indenting
encoder runs in pure Python, and every call leaves a cycle of closures for
the cyclic collector.  Indented reports come from `cli._json_text`."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))
ENCODERS = {"dump", "dumps", "JSONEncoder"}


def indented_json_calls(source):
    """(line, name) of each call to `json.dump`, `json.dumps` or
    `json.JSONEncoder` that passes `indent`, whether reached through the
    module (under any alias) or imported from it by name."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update((a.asname or a.name, a.name) for a in node.names
                         if a.name in ENCODERS)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not any(
                k.arg == "indent" for k in node.keywords):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ENCODERS \
                and isinstance(f.value, ast.Name) and f.value.id in modules:
            found.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and f.id in names:
            found.append((node.lineno, names[f.id]))
    return sorted(found)


def test_the_scan_sees_every_call_form():
    source = ("import json\nimport json as js\n"
              "from json import dumps, dump as d, JSONEncoder\n"
              "json.dumps(v, indent=2)\njs.dump(v, fh, indent=None)\n"
              "dumps(v, indent=1)\nd(v, fh, indent=4)\n"
              "JSONEncoder(indent=2)\njson.dumps(v, sort_keys=True)\n"
              "other.dumps(v, indent=2)\n")
    assert indented_json_calls(source) == [
        (4, "dumps"), (5, "dump"), (6, "dumps"), (7, "dump"),
        (8, "JSONEncoder")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_indented_json_encoder(path):
    assert indented_json_calls(path.read_text()) == []
