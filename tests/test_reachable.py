"""Every function, class and method under src/ is reached from an entry
point: `cli.main`, `selftest.run_all` or code that runs on import."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genusfields"
ENTRY_POINTS = ("cli.main", "selftest.run_all")

# Reached today only through names that perfbench/ wraps or calls; they go
# once the benchmark reads the package's own trace counters.  The list may
# only shrink.
ALLOWED = {
    "abelian.hnf_with_transform",
    "abelian.smith_normal_form",
    "abelian.CRTUnitGroup.project",
    "abelian.UnitGroup.component_ambient",
    "fqpoly.UnitGroupModN.component_ambient",
    "characters.restrict_to_component",
    "characters.inflate_from_component",
    "characters.component_decompose",
    "genus_function._polynomial_modulus",
    "genus_function.extended_genus_characters_ff",
    "genus_function.constants_kernel_part",
    "genus_function.genus_characters_ff",
    "genus_function.component_fields",
}


def _reads(nodes):
    """The names an AST reads: `a` and `b` of `a.b`, by name alone."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _scan(body, owner, prefix, defs, on_import):
    """Record each function and class of `body` in `defs` as qualified
    name -> (`owner`, the enclosing class or None; node), and put into
    `on_import` what runs when the body runs: its other statements, and
    the decorators, defaults and bases of its definitions."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = prefix + node.name
            defs[name] = (owner, node)
            on_import += node.decorator_list
            if isinstance(node, ast.ClassDef):
                on_import += node.bases + node.keywords
                _scan(node.body, name, name + ".", defs, on_import)
            else:
                on_import += node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]
        else:
            on_import.append(node)


def unreached(sources, roots=ENTRY_POINTS):
    """Qualified names (module.name, module.Class.name) of the definitions
    in `sources` ({module: text}) that neither `roots` nor module-level
    code reach.  A read name reaches every definition of that name, so
    the answer errs towards reached; a method needs its class reached, and
    a class's dunders are reached with it.  Function bodies hold no
    separate definitions: a nested def is part of its enclosing one."""
    defs, on_import = {}, []
    for module, text in sources.items():
        _scan(ast.parse(text).body, None, module + ".", defs, on_import)
    names, reached, todo = _reads(on_import), set(roots), roots
    while True:
        names |= _reads(stmt for q in todo
                        if not isinstance(defs[q][1], ast.ClassDef)
                        for stmt in defs[q][1].body)
        todo = [q for q, (owner, node) in defs.items() if q not in reached
                and (owner is None or owner in reached)
                and (node.name in names or owner is not None
                     and re.fullmatch(r"__\w+__", node.name))]
        if not todo:
            return sorted(set(defs) - reached)
        reached.update(todo)


def _package_sources():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_the_scan_follows_calls_attributes_and_classes():
    sources = {
        "a": ("import b\n"
              "def main():\n    return b.helper(b.Thing(), decorated)\n"
              "def orphan():\n    return main()\n"
              "@decorate\ndef decorated(x=make()):\n    pass\n"
              "def decorate(f):\n    return f\n"
              "def make():\n    pass\n"),
        "b": ("TABLE = {'k': lambda: listed()}\n"
              "def helper(t):\n    return t.used()\n"
              "def listed():\n    pass\n"
              "class Thing(Base):\n"
              "    def __eq__(self, other):\n        return self.unused\n"
              "    def used(self):\n        return Lost()\n"
              "    def unused(self):\n        pass\n"
              "class Base:\n    pass\n"
              "class Lost:\n    pass\n"
              "class Never:\n"
              "    def used(self):\n        pass\n"
              "    def __init__(self):\n        pass\n"),
    }
    assert unreached(sources, ("a.main",)) == [
        "a.orphan", "b.Never", "b.Never.__init__", "b.Never.used"]
    assert unreached(sources, ("a.main", "a.orphan")) == [
        "b.Never", "b.Never.__init__", "b.Never.used"]
    assert unreached(sources, ()) == [
        "a.decorated", "a.main", "a.orphan", "b.Lost", "b.Never", "b.Never.__init__",
        "b.Never.used", "b.Thing", "b.Thing.__eq__", "b.Thing.unused",
        "b.Thing.used", "b.helper"]


def test_every_definition_is_reached():
    assert set(unreached(_package_sources())) == ALLOWED


def test_the_allowed_names_are_reached_only_from_perfbench():
    """Each allowed name is named by perfbench/, or reached only through
    the allowed names that are."""
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    named = {q for q in ALLOWED
             if re.search(r"\b%s\b" % q.rpartition(".")[2], bench)}
    assert unreached(_package_sources(),
                     ENTRY_POINTS + tuple(sorted(named))) == []
