"""Command-line front door: `genusctl`.

Subcommands `number`, `function`, and `oracle` read a field descriptor
document and print a genus report; `selftest` runs the nine verification
suites.  Reports are deterministic: identical inputs produce byte
identical output, both in the fixed-width human form and with `--json`.

Exit codes: 0 success, 1 selftest failure, 2 schema violation, 3 bound
exceeded, 4 insufficient precision (level too small), 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, reduce
from math import prod

from . import (abelian, characters, fqpoly, genus_function, genus_number,
               oracle, selftest)
from .errors import (BoundExceededError, GenusError, PrecisionError,
                     SchemaError)


# ---------------------------------------------------------------------------
# Minimal line-oriented parser for the TOML-style document format.
# Supports: comments, [table] and [[array-of-tables]] headers, and
# key = value with integers, booleans, quoted strings, and (nested)
# arrays of those.

def parse_document(text):
    root = {}
    current = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise SchemaError(f"line {lineno}: malformed table header")
            path = line[2:-2].strip()
            parent, leaf = _descend(root, path, lineno)
            entry = {}
            parent.setdefault(leaf, [])
            if not isinstance(parent[leaf], list):
                raise SchemaError(
                    f"line {lineno}: {path} is not an array of tables")
            parent[leaf].append(entry)
            current = entry
        elif line.startswith("["):
            if not line.endswith("]"):
                raise SchemaError(f"line {lineno}: malformed table header")
            path = line[1:-1].strip()
            parent, leaf = _descend(root, path, lineno)
            entry = parent.setdefault(leaf, {})
            if not isinstance(entry, dict):
                raise SchemaError(f"line {lineno}: {path} is not a table")
            current = entry
        else:
            if "=" not in line:
                raise SchemaError(f"line {lineno}: expected key = value")
            key, _, rest = line.partition("=")
            key = key.strip()
            if not key:
                raise SchemaError(f"line {lineno}: empty key")
            value, tail = _parse_value(rest.strip(), lineno)
            if tail.strip():
                raise SchemaError(f"line {lineno}: trailing garbage {tail!r}")
            if key in current:
                raise SchemaError(f"line {lineno}: duplicate key {key!r}")
            current[key] = value
    return root


def _descend(root, path, lineno):
    if not path:
        raise SchemaError(f"line {lineno}: empty table name")
    parts = [p.strip() for p in path.split(".")]
    node = root
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise SchemaError(f"line {lineno}: {part} is not a table")
    return node, parts[-1]


def _parse_value(s, lineno):
    if not s:
        raise SchemaError(f"line {lineno}: missing value")
    if s[0] == '"':
        end = s.find('"', 1)
        if end < 0:
            raise SchemaError(f"line {lineno}: unterminated string")
        return s[1:end], s[end + 1:]
    if s[0] == "[":
        out = []
        rest = s[1:].lstrip()
        while True:
            if not rest:
                raise SchemaError(f"line {lineno}: unterminated array")
            if rest[0] == "]":
                return out, rest[1:]
            item, rest = _parse_value(rest, lineno)
            out.append(item)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:].lstrip()
            elif not rest.startswith("]"):
                raise SchemaError(f"line {lineno}: expected , or ] in array")
    for word, val in (("true", True), ("false", False)):
        if s.startswith(word) and (len(s) == len(word)
                                   or not s[len(word)].isalnum()):
            return val, s[len(word):]
    i = 0
    if s[0] in "+-":
        i = 1
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == 0 or (i == 1 and s[0] in "+-"):
        raise SchemaError(f"line {lineno}: cannot parse value {s!r}")
    return int(s[:i]), s[i:]


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read spec file: {exc}") from exc
    doc = parse_document(text)
    if "kind" not in doc:
        raise SchemaError("document is missing the 'kind' field")
    return doc


# ---------------------------------------------------------------------------
# Document interpretation

ABELIAN_KINDS = ("number-abelian", "number-quadratic", "function-abelian")


def _need(doc, key, types, where="document"):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where} is missing the {key!r} field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def _int_array(value, where):
    """`value` if it is a list of integers; bools (ints to Python) fail."""
    if not isinstance(value, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in value):
        raise SchemaError(f"{where}: expected an array of integers")
    return value


def _field_from_doc(doc):
    q = _need(doc, "q", int)
    if q > fqpoly.FIELD_SIZE_BOUND:
        raise BoundExceededError(
            f"field size {q} exceeds {fqpoly.FIELD_SIZE_BOUND}")
    factors = abelian.factorize(q)
    if len(factors) != 1:
        raise SchemaError(f"invalid field size q={q}: not a prime power")
    (p, s), = factors
    return fqpoly.fq_field(p, s)


def _poly_from_doc(fld, coeffs, where):
    _int_array(coeffs, where)
    if any(c < 0 or c >= fld.q for c in coeffs):
        raise SchemaError(f"{where}: coefficients must lie in 0..{fld.q - 1}")
    return fqpoly.poly(fld, tuple(coeffs))


def _character_group_from_doc(amb, doc):
    vectors = doc.get("characters", [])
    if vectors == "full":
        return characters.full_dual(amb)
    if not isinstance(vectors, list):
        raise SchemaError("'characters' must be an array of exponent vectors")
    chars = []
    for vec in vectors:
        _int_array(vec, "characters")
        if len(vec) != amb.group.rank:
            raise SchemaError(
                f"character vector {vec} has length {len(vec)}, expected "
                f"{amb.group.rank} (one exponent per canonical generator)")
        chars.append(characters.Character(amb, tuple(vec)))
    return characters.character_group(amb, chars)


def _numeric_ambient_from_doc(doc, bound):
    kind = doc["kind"]
    if kind == "number-quadratic":
        d = _need(doc, "discriminant", int)
        _check_unit_count(abs(d), bound)
        chi = characters.kronecker_character(d)
        return chi.ambient, characters.character_group(chi.ambient, [chi])
    n = _need(doc, "modulus", int)
    if n < 1:
        raise SchemaError("modulus must be positive")
    if n in (1, 2):
        raise SchemaError("modulus must be at least 3 (use modulus 3 with "
                          "no characters for the rational field)")
    _check_unit_count(n, bound)
    amb = characters.numeric_ambient(n)
    return amb, _character_group_from_doc(amb, doc)


def _ff_ambient_from_doc(doc, bound):
    fld = _field_from_doc(doc)
    n = _poly_from_doc(fld, _need(doc, "modulus", list), "modulus")
    if n.degree < 1:
        raise SchemaError("modulus must have degree at least 1")
    factored = fqpoly.factor_modulus(n)
    _check_bound(factored.unit_order(), bound)
    amb = characters.ff_ambient(factored)
    return amb, _character_group_from_doc(amb, doc)


def _abelian_from_doc(doc, bound):
    """(ambient, X) for an abelian descriptor over Q or F_q(T)."""
    if doc["kind"] == "function-abelian":
        return _ff_ambient_from_doc(doc, bound)
    return _numeric_ambient_from_doc(doc, bound)


def _check_unit_count(n, bound):
    """Check n against UNIT_GROUP_BOUND and |(Z/nZ)*| = phi(n) against the
    bound, before anything factors n or builds its unit group."""
    if n > abelian.UNIT_GROUP_BOUND:
        raise BoundExceededError(f"modulus {n} exceeds the unit-group bound "
                                 f"{abelian.UNIT_GROUP_BOUND}")
    if bound is not None:
        _check_bound(prod((p - 1) * p ** (a - 1)
                          for p, a in abelian.factorize(n)), bound)


def _check_bound(size, bound):
    if bound is not None and size > bound:
        raise BoundExceededError(
            f"structure of size {size} exceeds the bound {bound}")


# ---------------------------------------------------------------------------
# Report payloads

def _generator_header(amb):
    gens = []
    for g, d in zip(amb.generators, amb.group.invariant_factors):
        gens.append({"residue": str(g), "order": d})
    return gens


def _abelian_payload(doc, amb, x):
    report = genus_number.build_report(x)
    payload = {
        "kind": doc["kind"],
        "modulus": report.modulus,
        "unit_group": str(amb.group),
        "generators": _generator_header(amb),
        "characters": [list(chi.exponents) for chi in x.generators()],
        "field_degree": report.field_degree,
        "genus_degree_over_field": report.genus_degree_over_k,
        "extended_degree_over_field": report.extended_degree_over_k,
        "gap": report.gap,
        "conductor": report.conductor,
    }
    if amb.kind == "number":
        payload["primes"] = [
            {"prime": label, "e": e, "tame": tame, "wild": wild,
             "component_degree": comp}
            for label, e, tame, wild, comp in report.prime_table]
    else:
        payload["q"] = amb.field.q
        payload["primes"] = [
            {"prime": str(key), "e": e, "tame": tame, "wild": wild,
             "component_degree": e, "conductor_exponent": f}
            for key, e, tame, wild, f in report.primes]
    return payload


def _subgroup_from_residues(units, residues, where):
    vecs = []
    for r in _int_array(residues, where):
        try:
            vecs.append(units.dlog(r))
        except (ValueError, KeyError) as exc:
            raise SchemaError(f"{where}: {r} is not a unit") from exc
    return abelian.subgroup_from_generators(units.group, vecs)


def _local_number_payload(doc, bound, level_flag):
    p = _need(doc, "p", int)
    level = _need(doc, "level", int)
    if level_flag is not None and level_flag != level:
        raise SchemaError(
            f"--level {level_flag} does not match the document level {level}")
    if level < 1:
        raise SchemaError(f"level must be at least 1, got {level}")
    # p^level for a p that may be prime, without a huge power
    if max(p, 1) ** min(level, abelian.UNIT_GROUP_BOUND.bit_length()) \
            > abelian.UNIT_GROUP_BOUND:
        raise BoundExceededError(f"modulus {p}^{level} exceeds the unit-group "
                                 f"bound {abelian.UNIT_GROUP_BOUND}")
    if abelian.factorize(p) != [(p, 1)]:
        raise SchemaError(f"p = {p} is not a prime")
    _check_bound((p - 1) * p ** (level - 1), bound)
    modulus = p ** level
    units = abelian.unit_group(modulus)
    primes = doc.get("primes")
    if not isinstance(primes, list) or not primes:
        raise SchemaError("number-local document needs [[primes]] entries")
    records = []
    subs = []
    for i, entry in enumerate(primes):
        where = f"primes[{i}]"
        e = _need(entry, "e", int, where)
        f = _need(entry, "f", int, where)
        residues = _need(entry, "norm_residues", list, where)
        h = _subgroup_from_residues(units, residues, where)
        subs.append(h)
        records.append(genus_number.PrimeAboveData(e, f, h))
    data = genus_number.LocalPrimeData(p, level, tuple(records))
    degree = genus_number.lp_degree_from_local(data)
    stable = genus_number.lp_degree_is_stable(data)
    payload = {
        "kind": doc["kind"],
        "p": p,
        "level": level,
        "unit_group": str(units.group),
        "local_degree": degree,
        "level_stable": stable,
        "norm_indices": [h.index for h in subs],
    }
    if p == 2:
        h = reduce(abelian.intersect, subs)
        out = genus_number.classify_l2(h, modulus)
        payload["two_adic"] = {"tag": out.tag, "m": out.m,
                               "field": out.field_label}
    elif p > 2:
        payload["tame_degree"] = genus_number.tame_degree(
            p, [rec.e for rec in records])
    return payload


def _local_function_payload(doc, bound, level_flag):
    fld = _field_from_doc(doc)
    n_max = _need(doc, "n_max", int)
    if level_flag is not None and level_flag != n_max:
        raise SchemaError(
            f"--level {level_flag} does not match the document n_max {n_max}")
    if n_max <= 14:  # beyond, InfinityUnits refuses every q by size
        _check_bound((fld.q - 1) * fld.q ** max(n_max - 1, 0), bound)
    infinity = genus_function.InfinityUnits(fld, n_max)
    entries = doc.get("primes")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("function-local document needs [[primes]] entries")
    records = []
    for i, entry in enumerate(entries):
        where = f"primes[{i}]"
        e = _need(entry, "e", int, where)
        t = _need(entry, "t", int, where)
        h = None
        if "norm_generators" in entry:
            gens = entry["norm_generators"]
            if gens == "full":
                h = infinity.full_subgroup()
            else:
                if not isinstance(gens, list):
                    raise SchemaError(f"{where}: norm_generators must be an "
                                      "array or \"full\"")
                elements = []
                for vec in gens:
                    if len(_int_array(vec, where)) != max(n_max, 1):
                        raise SchemaError(
                            f"{where}: each norm generator is "
                            f"[c, a_1, ..., a_{n_max - 1}]")
                    c, tail = vec[0], tuple(vec[1:])
                    if not 1 <= c < fld.q \
                            or any(a < 0 or a >= fld.q for a in tail):
                        raise SchemaError(
                            f"{where}: generator entries must be field "
                            "elements with a nonzero constant part")
                    elements.append((c, tail))
                h = infinity.subgroup(elements)
        records.append(genus_function.InfinitePrimeRecord(e, t, h))
    data = genus_function.InfinitePrimeData(tuple(records))
    inv = genus_function.s_field_invariants(data, infinity)
    return {
        "kind": doc["kind"],
        "q": fld.q,
        "n_max": n_max,
        "infinity_unit_group": str(infinity.group),
        "t0": inv.t0,
        "n0": inv.n0,
        "m0": inv.m0,
        "alpha": inv.alpha,
        "f_infinity": inv.f_infinity,
    }


def _oracle_payload(doc, bound):
    kind = doc["kind"]
    if kind not in ABELIAN_KINDS:
        raise SchemaError(f"the oracle subcommand does not apply to {kind!r}")
    amb, x = _abelian_from_doc(doc, bound)
    lattice = oracle.enumerate_subfields(amb)
    extended = oracle.maximal_extended_search(x)
    genus = oracle.maximal_genus_search(x)
    return {
        "kind": kind,
        "modulus": amb.modulus_label(),
        "subgroup_count": len(lattice.subgroups),
        "field_degree": x.order,
        "extended_degree": extended.order,
        "extended_matches_closed_form":
            extended == genus_number.extended_genus_characters(x),
        "genus_degree": genus.order,
        "genus_matches_closed_form":
            genus == genus_number.genus_characters(x),
    }


# ---------------------------------------------------------------------------
# Rendering

def _human_lines(payload):
    lines = []
    title = payload.get("kind", "report")
    lines.append(f"genusctl report ({title})")
    lines.append("-" * 60)
    primes = payload.get("primes")
    for key in sorted(payload):
        if key in ("kind", "primes", "generators", "characters", "two_adic"):
            continue
        lines.append(f"  {key:<28} {payload[key]}")
    for key in ("generators", "characters"):
        if key in payload:
            lines.append(f"  {key:<28} "
                         + json.dumps(payload[key], sort_keys=True))
    if "two_adic" in payload:
        lines.append(f"  {'two_adic':<28} "
                     + json.dumps(payload["two_adic"], sort_keys=True))
    if primes:
        lines.append("")
        header = list(primes[0].keys())
        lines.append("  " + "  ".join(f"{h:>18}" for h in header))
        for row in primes:
            lines.append("  " + "  ".join(f"{str(row[h]):>18}"
                                          for h in header))
    return lines


def _emit(payload, as_json, stream):
    if as_json:
        stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        stream.write("\n".join(_human_lines(payload)) + "\n")


# ---------------------------------------------------------------------------
# Entry point

@lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="genusctl",
        description="Genus fields of abelian extensions of Q and F_q(T).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("number", "genus report for a number-field descriptor"),
            ("function", "genus report for a function-field descriptor"),
            ("oracle", "exhaustive-search cross-check of a descriptor"),
            ("selftest", "run the nine verification suites")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--spec", metavar="PATH",
                       help="field descriptor document")
        p.add_argument("--level", type=int, metavar="M",
                       help="working level; must match the document")
        p.add_argument("--bound", type=int, metavar="B",
                       help="enumeration bound (overrides GENUSCTL_BOUND)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
    return parser


def _effective_bound(args):
    if args.bound is not None:
        if args.bound < 1:
            raise SchemaError("--bound must be positive")
        return args.bound
    env = os.environ.get("GENUSCTL_BOUND")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise SchemaError(
                f"GENUSCTL_BOUND is not an integer: {env!r}") from exc
        if value < 1:
            raise SchemaError("GENUSCTL_BOUND must be positive")
        return value
    return None


def _run_selftest(args, bound, stream):
    results = selftest.run_all(bound)
    if args.json:
        payload = {
            "ok": all(r.ok for r in results),
            "criteria": [
                {"number": r.number, "name": r.name, "ok": r.ok,
                 "detail": r.detail} for r in results],
        }
        stream.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for r in results:
            stream.write(r.line() + "\n")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    try:
        bound = _effective_bound(args)
        if args.command == "selftest":
            if args.spec is not None:
                raise SchemaError("selftest does not take a spec document")
            return _run_selftest(args, bound, stream)
        if args.spec is None:
            raise SchemaError(f"the {args.command} subcommand needs --spec")
        doc = load_document(args.spec)
        kind = doc["kind"]
        if args.command == "oracle":
            payload = _oracle_payload(doc, bound)
        elif kind in ABELIAN_KINDS and kind.startswith(args.command + "-"):
            if args.level is not None:
                raise SchemaError(
                    "--level applies only to local descriptors")
            payload = _abelian_payload(doc, *_abelian_from_doc(doc, bound))
        elif kind == args.command + "-local":
            local = (_local_number_payload if kind == "number-local"
                     else _local_function_payload)
            payload = local(doc, bound, args.level)
        else:
            raise SchemaError(
                f"kind {kind!r} is not a {args.command}-field descriptor")
        _emit(payload, args.json, stream)
        return 0
    except SchemaError as exc:
        print(f"genusctl: schema error: {exc}", file=sys.stderr)
        return 2
    except BoundExceededError as exc:
        print(f"genusctl: bound exceeded: {exc}", file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print(f"genusctl: insufficient precision: {exc}", file=sys.stderr)
        return 4
    except GenusError as exc:
        print(f"genusctl: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed internal invariant: not exit 1, a selftest failure
        print(f"genusctl: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
