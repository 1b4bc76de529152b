"""The genusctl command line: parsing, reports, determinism, exit codes."""

import contextlib
import gc
import glob
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from genusfields import abelian, characters, cli, genus_number
from genusfields.errors import SchemaError

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(args, env_bound=None):
    old = os.environ.pop("GENUSCTL_BOUND", None)
    if env_bound is not None:
        os.environ["GENUSCTL_BOUND"] = str(env_bound)
    buf = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(args)
    finally:
        sys.stdout = stdout
        os.environ.pop("GENUSCTL_BOUND", None)
        if old is not None:
            os.environ["GENUSCTL_BOUND"] = old
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Document parser

def test_parse_document_basic():
    doc = cli.parse_document("""
# comment
kind = "number-abelian"
modulus = 45
flag = true
characters = [[1, 0], [0, 2]]

[meta]
note = "hi"

[[primes]]
e = 2
[[primes]]
e = 3
""")
    assert doc["kind"] == "number-abelian"
    assert doc["modulus"] == 45
    assert doc["flag"] is True
    assert doc["characters"] == [[1, 0], [0, 2]]
    assert doc["meta"] == {"note": "hi"}
    assert doc["primes"] == [{"e": 2}, {"e": 3}]


@pytest.mark.parametrize("text", [
    "kind number-abelian",
    "= 3",
    "x = ",
    'x = "unterminated',
    "x = [1, 2",
    "x = 3 4",
    "x = 1\nx = 2",
    "[unclosed",
])
def test_parse_document_rejects_malformed(text):
    with pytest.raises(SchemaError):
        cli.parse_document(text)


def test_parse_negative_and_nested():
    doc = cli.parse_document('a = -7\nb = [[-1, 0], [2]]\nc = ["x", "y"]')
    assert doc == {"a": -7, "b": [[-1, 0], [2]], "c": ["x", "y"]}


# ---------------------------------------------------------------------------
# Reports

def test_quadratic_report_fixture():
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "quad_minus5.toml"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == 1
    assert payload["genus_degree_over_field"] == 2
    assert payload["extended_degree_over_field"] == 2
    comps = {row["prime"]: row["component_degree"] for row in payload["primes"]}
    assert comps == {"2": 2, "5": 2}


def test_trivial_field_report():
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "trivial.toml"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["field_degree"] == 1
    assert payload["genus_degree_over_field"] == 1
    assert payload["extended_degree_over_field"] == 1
    assert payload["gap"] == 1


def test_cyclotomic_function_field_is_its_own_extended_genus():
    code, out = run_cli(["function", "--spec",
                         os.path.join(SCRIPTS, "cyclo_p.toml"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["extended_degree_over_field"] == 1
    assert payload["gap"] == 1
    assert len(payload["primes"]) == 1


def test_local_and_oracle_reports():
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "local_two.toml"), "--json"])
    assert code == 0
    assert json.loads(out)["two_adic"]["field"] == "Q(zeta_16)^+"
    code, out = run_cli(["oracle", "--spec",
                         os.path.join(SCRIPTS, "sqrt3.toml"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["extended_matches_closed_form"]
    assert payload["genus_matches_closed_form"]
    assert payload["extended_degree"] == 4 and payload["genus_degree"] == 2


def test_function_local_report():
    code, out = run_cli(["function", "--spec",
                         os.path.join(SCRIPTS, "wild_infinity.toml"),
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1 and payload["n0"] == 2
    assert payload["t0"] == payload["f_infinity"] == 1


def test_reports_are_byte_identical():
    for args in (["number", "--spec",
                  os.path.join(SCRIPTS, "quad_minus5.toml")],
                 ["number", "--spec",
                  os.path.join(SCRIPTS, "quad_minus5.toml"), "--json"],
                 ["function", "--spec",
                  os.path.join(SCRIPTS, "cyclo_p.toml"), "--json"]):
        code1, out1 = run_cli(args)
        code2, out2 = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.mark.parametrize("name", sorted(
    f[:-len(".toml")] for f in os.listdir(SCRIPTS) if f.endswith(".toml")))
def test_script_report_matches_golden(name):
    # tests/golden/<name>.json holds the `--json` report of each sample
    # descriptor; refactors must reproduce it byte for byte
    spec = os.path.join(SCRIPTS, name + ".toml")
    command = cli.load_document(spec)["kind"].split("-")[0]
    code, out = run_cli([command, "--spec", spec, "--json"])
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("name", sorted(
    f[:-len(".toml")] for f in os.listdir(SCRIPTS) if f.endswith(".toml")
    and cli.load_document(os.path.join(SCRIPTS, f))["kind"]
    in cli.ABELIAN_KINDS))
def test_script_oracle_matches_golden(name):
    # tests/golden/oracle/<name>.json holds the `oracle --json` report of
    # each abelian sample descriptor, the genus search included
    spec = os.path.join(SCRIPTS, name + ".toml")
    code, out = run_cli(["oracle", "--spec", spec, "--json"])
    assert code == 0
    assert json.loads(out)["genus_matches_closed_form"] is True
    with open(os.path.join(GOLDEN, "oracle", name + ".json"),
              encoding="utf-8") as fh:
        assert out == fh.read()


def test_json_report_round_trips():
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "quad_minus5.toml"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


# ---------------------------------------------------------------------------
# The indented JSON writer

# strings with what JSON escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters (written as surrogate pairs)
JSON_STRINGS = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\xe9'
                                       '\u20ac\U0001f600') | st.characters(),
                       max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"": [], "a\"\\\x01\U0001f600": {"k": [10 ** 40, -1, True, None]},
          "\xe9": {}})
def test_json_writer_matches_the_stdlib(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True,
                                               indent=2)


@pytest.mark.parametrize("value", [(1, 2), 1.5, {1: 2}, {"a": {3}},
                                   [object()]])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(GOLDEN, "**", "*.json"), recursive=True)),
    ids=lambda p: os.path.relpath(p, GOLDEN))
def test_json_writer_reproduces_the_goldens(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert cli._json_text(json.loads(text)) + "\n" == text


def _accepts(command, name):
    kind = cli.load_document(os.path.join(SCRIPTS, name + ".toml"))["kind"]
    return kind.startswith(command + "-") or (
        command == "oracle" and kind in cli.ABELIAN_KINDS)


ACCEPTED_REPORTS = [
    (command, name) for name in sorted(
        f[:-len(".toml")] for f in os.listdir(SCRIPTS) if f.endswith(".toml"))
    for command in ("number", "function", "oracle") if _accepts(command, name)]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("command, name", ACCEPTED_REPORTS)
def test_warm_report_leaves_no_cyclic_garbage(command, name, flags):
    # reference cycles are freed only by the cyclic collector, whose
    # passes scan the live heap and land on single reports
    args = [command, "--spec", os.path.join(SCRIPTS, name + ".toml")] + flags
    assert run_cli(args)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run_cli(args)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Exit codes

def test_exit_code_schema(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text('kind = "number-abelian"\nmodulus = "x"\n')
    code, _ = run_cli(["number", "--spec", str(bad)])
    assert code == 2
    code, _ = run_cli(["number", "--spec", str(tmp_path / "missing.toml")])
    assert code == 2
    code, _ = run_cli(["oracle", "--spec",
                       os.path.join(SCRIPTS, "local_two.toml")])
    assert code == 2


def test_exit_code_bound():
    code, _ = run_cli(["oracle", "--spec",
                       os.path.join(SCRIPTS, "quad_minus5.toml"),
                       "--bound", "4"])
    assert code == 3
    code, _ = run_cli(["oracle", "--spec",
                       os.path.join(SCRIPTS, "quad_minus5.toml")],
                      env_bound=4)
    assert code == 3
    # the explicit flag wins over the environment
    code, _ = run_cli(["oracle", "--spec",
                       os.path.join(SCRIPTS, "quad_minus5.toml"),
                       "--bound", "100"], env_bound=4)
    assert code == 0


def test_exit_code_precision(tmp_path):
    doc = tmp_path / "coarse.toml"
    doc.write_text('kind = "function-local"\nq = 2\nn_max = 2\n'
                   "[[primes]]\ne = 4\nt = 1\nnorm_generators = []\n")
    code, _ = run_cli(["function", "--spec", str(doc)])
    assert code == 4


@pytest.mark.parametrize("command, text", [
    ("function", 'kind = "function-abelian"\nq = 2\nmodulus = [{}, 0, 1]\n'
                 "characters = []\n"),
    ("number", 'kind = "number-abelian"\nmodulus = 120\n'
               "characters = [[{}, 0, 0, 0]]\n"),
    ("number", 'kind = "number-local"\np = 2\nlevel = 4\n'
               "[[primes]]\ne = 4\nf = 1\nnorm_residues = [{}]\n"),
    ("function", 'kind = "function-local"\nq = 2\nn_max = 3\n'
                 "[[primes]]\ne = 2\nt = 1\nnorm_generators = [[{}, 0, 1]]\n"),
], ids=["modulus", "characters", "norm_residues", "norm_generators"])
def test_booleans_in_integer_arrays_are_refused(tmp_path, command, text):
    doc = tmp_path / "doc.toml"
    doc.write_text(text.format(1))
    assert run_cli([command, "--spec", str(doc)])[0] == 0
    doc.write_text(text.format("true"))
    assert run_cli([command, "--spec", str(doc)]) == (2, "")


@pytest.mark.parametrize("text, good, bad", [
    ('kind = "number-quadratic"\ndiscriminant = {}\n', "-20", "-20.0"),
    ('kind = "number-abelian"\nmodulus = {}\n', "20", "{value = 20}"),
    ('kind = "number-abelian"\nmodulus = {}\n', "20", "1979-05-27"),
    ('kind = "number-abelian"\nmodulus = 20\ncharacters = [[1, {}]]\n',
     "0", "0.5"),
    ('kind = "number-local"\np = 3\nlevel = 2\n'
     "[[primes]]\ne = {}\nf = 1\nnorm_residues = [8]\n", "2", "2.0"),
    ('kind = "number-abelian"\nmodulus = 20\nx = {}\n', "[[0]]",
     "[" * 5000 + "]" * 5000),
], ids=["float", "inline table", "date", "float in characters",
        "float in primes", "deeply nested array"])
def test_other_toml_values_are_refused(tmp_path, capsys, text, good, bad):
    doc = tmp_path / "doc.toml"
    doc.write_text(text.format(good))
    assert run_cli(["number", "--spec", str(doc)])[0] == 0
    doc.write_text(text.format(bad))
    capsys.readouterr()
    assert run_cli(["number", "--spec", str(doc)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("genusctl: schema error: ") and "Traceback" not in err


@pytest.mark.parametrize("error", [RuntimeError("invariant broken"),
                                   KeyError("missing")],
                         ids=["RuntimeError", "KeyError"])
def test_internal_error_exits_5_without_traceback(monkeypatch, capsys,
                                                  error):
    def fail(x):
        raise error

    monkeypatch.setattr(genus_number, "build_report", fail)
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "multi_prime.toml")])
    err = capsys.readouterr().err
    assert code == 5 and out == ""
    assert err == (f"genusctl: internal error: {type(error).__name__}: "
                   f"{error}\n")
    assert "Traceback" not in err


def test_level_flag_must_match_document():
    code, _ = run_cli(["number", "--spec",
                       os.path.join(SCRIPTS, "local_two.toml"),
                       "--level", "4", "--json"])
    assert code == 0
    code, _ = run_cli(["number", "--spec",
                       os.path.join(SCRIPTS, "local_two.toml"),
                       "--level", "3"])
    assert code == 2


@pytest.mark.parametrize("p, expected", [
    (4, 2), (6, 2), (-3, 2), (1, 2),
    # refused by size before p is factored by trial division
    (10 ** 18 + 9, 3),
])
def test_number_local_requires_a_prime(tmp_path, p, expected):
    doc = tmp_path / "local.toml"
    doc.write_text(f'kind = "number-local"\np = {p}\nlevel = 2\n'
                   "[[primes]]\ne = 2\nf = 1\nnorm_residues = [1]\n")
    code, out = run_cli(["number", "--spec", str(doc), "--json"])
    assert code == expected and out == ""


def test_number_local_requires_a_positive_level(tmp_path):
    doc = tmp_path / "local.toml"
    doc.write_text('kind = "number-local"\np = 3\nlevel = 0\n'
                   "[[primes]]\ne = 2\nf = 1\nnorm_residues = [1]\n")
    assert run_cli(["number", "--spec", str(doc)])[0] == 2


def test_field_size_beyond_small_primes(tmp_path):
    # q = 17^2; a character of order 2 keeps the report small
    doc = tmp_path / "f289.toml"
    doc.write_text('kind = "function-abelian"\nq = 289\nmodulus = [1, 1]\n'
                   "characters = [[144]]\n")
    code, out = run_cli(["function", "--spec", str(doc), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 289 and payload["field_degree"] == 2


@pytest.mark.parametrize("q, expected", [
    (6, 2), (1, 2), (0, 2),
    # refused by size before q is factored by trial division
    (2 ** 17, 3), (10 ** 18 + 9, 3),
])
def test_field_size_must_be_a_prime_power(tmp_path, q, expected):
    doc = tmp_path / "bad_q.toml"
    doc.write_text(f'kind = "function-abelian"\nq = {q}\nmodulus = [1, 1]\n'
                   "characters = []\n")
    assert run_cli(["function", "--spec", str(doc)])[0] == expected


@pytest.mark.parametrize("command, script, constructor", [
    ("function", "cyclo_p.toml", "ff_ambient"),
    ("number", "quad_minus5.toml", "numeric_ambient"),
    ("number", "trivial.toml", "numeric_ambient"),
])
def test_bound_is_checked_before_building(monkeypatch, command, script,
                                          constructor):
    def refuse(*args):
        raise AssertionError("ambient built before the bound check")

    monkeypatch.setattr(characters, constructor, refuse)
    code, out = run_cli([command, "--spec", os.path.join(SCRIPTS, script),
                         "--bound", "1"])
    assert code == 3 and out == ""


def test_number_local_bound_counts_units(monkeypatch):
    # (Z/16)* has 8 elements: the bound is compared with phi(16), not 16
    local = os.path.join(SCRIPTS, "local_two.toml")
    assert run_cli(["number", "--spec", local, "--bound", "8"])[0] == 0

    def refuse(*args):
        raise AssertionError("unit group built before the bound check")

    monkeypatch.setattr(abelian, "unit_group", refuse)
    code, out = run_cli(["number", "--spec", local, "--bound", "7"])
    assert code == 3 and out == ""


def test_parser_is_built_once_and_reused(capsys):
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["number", "--bound", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out = run_cli(["number", "--spec",
                         os.path.join(SCRIPTS, "trivial.toml"), "--json"])
    assert code == 0 and json.loads(out)["field_degree"] == 1


def test_non_utf8_spec_is_a_schema_error(tmp_path):
    doc = tmp_path / "latin1.toml"
    doc.write_bytes(b'kind = "number-quadratic"\ndiscriminant = \xff\n')
    with pytest.raises(SchemaError):
        cli.load_document(str(doc))
    code, out = run_cli(["number", "--spec", str(doc)])
    assert code == 2 and out == ""


@pytest.mark.parametrize("d", [10 ** 18 + 9, -(10 ** 6 + 3),
                               # not fundamental, but refused by size first
                               4 * 10 ** 6])
def test_huge_discriminant_is_refused_before_factoring(monkeypatch, tmp_path,
                                                        d):
    def refuse(*args):
        raise AssertionError("discriminant factored before the bound check")

    monkeypatch.setattr(abelian, "factorize", refuse)
    doc = tmp_path / "big.toml"
    doc.write_text(f'kind = "number-quadratic"\ndiscriminant = {d}\n')
    code, out = run_cli(["number", "--spec", str(doc)])
    assert code == 3 and out == ""


ABELIAN_SCRIPTS = [("number", "multi_prime"), ("number", "quad_minus5"),
                   ("number", "sqrt3"), ("number", "trivial"),
                   ("function", "cyclo_p"), ("function", "gap_ff"),
                   ("function", "unramified_f4"), ("function", "wild_cyclo")]


@pytest.mark.parametrize("command, name", ABELIAN_SCRIPTS)
def test_one_extended_genus_computation_per_report(monkeypatch, command,
                                                   name):
    calls = []
    extended = genus_number.extended_genus_characters

    def counted(x):
        calls.append(x)
        return extended(x)

    monkeypatch.setattr(genus_number, "extended_genus_characters", counted)
    code, _ = run_cli([command, "--spec",
                       os.path.join(SCRIPTS, name + ".toml"), "--json"])
    assert code == 0 and len(calls) == 1


def test_report_splits_x_once_without_restriction(monkeypatch):
    # multi_prime: 3 generators of X over 3 primes; the restriction pass
    # made 18 restrict_to_component calls per report
    calls = {"restrict": 0, "matrix": 0}
    restrict = characters.restrict_to_component
    matrix = abelian.CRTUnitGroup.component_matrix

    def counted_restrict(chi, component):
        calls["restrict"] += 1
        return restrict(chi, component)

    def counted_matrix(self, key):
        calls["matrix"] += 1
        return matrix(self, key)

    monkeypatch.setattr(characters, "restrict_to_component", counted_restrict)
    monkeypatch.setattr(abelian.CRTUnitGroup, "component_matrix",
                        counted_matrix)
    characters.component_split.cache_clear()
    code, _ = run_cli(["number", "--spec",
                       os.path.join(SCRIPTS, "multi_prime.toml"), "--json"])
    assert code == 0
    assert calls == {"restrict": 0, "matrix": 3}


@pytest.mark.parametrize("command, name", ABELIAN_SCRIPTS)
def test_abelian_reports_do_not_enumerate_characters(monkeypatch, command,
                                                     name):
    def refuse(self):
        raise AssertionError("character group enumerated")

    monkeypatch.setattr(abelian.Subgroup, "elements", refuse)
    code, out = run_cli([command, "--spec",
                         os.path.join(SCRIPTS, name + ".toml"), "--json"])
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        assert out == fh.read()


def _count_logs(monkeypatch):
    """Cold ambient caches, then every `CyclicLog` built and every
    `UnitGroup.dlog` call from now on."""
    made = []
    init, dlog = abelian.CyclicLog.__init__, abelian.UnitGroup.dlog
    monkeypatch.setattr(abelian.CyclicLog, "__init__", lambda self, *a: (
        made.append(("log", a[1])), init(self, *a))[1])
    monkeypatch.setattr(abelian.UnitGroup, "dlog", lambda self, u: (
        made.append(("dlog", u)), dlog(self, u))[1])
    for cache in (abelian.unit_group, characters.numeric_ambient,
                  characters.component_split):
        cache.cache_clear()
    return made


NUMBER_REPORT_SCRIPTS = sorted(
    name[:-5] for name in os.listdir(SCRIPTS) if name.endswith(".toml")
    and cli.load_document(os.path.join(SCRIPTS, name))["kind"]
    in ("number-quadratic", "number-abelian"))


@pytest.mark.parametrize("name", NUMBER_REPORT_SCRIPTS)
def test_number_report_takes_no_dlog(monkeypatch, name):
    # -1 is read off the presentation, so a fresh modulus builds no log
    made = _count_logs(monkeypatch)
    for flag in ([], ["--json"]):
        code, _ = run_cli(["number", "--spec",
                           os.path.join(SCRIPTS, name + ".toml")] + flag)
        assert code == 0 and made == []


@pytest.mark.parametrize("p, level, residues", [
    (5, 2, ([7], [6])), (2, 4, ([15], [5]))], ids=["odd", "two"])
def test_number_local_report_forms_the_norm_product_once(
        monkeypatch, tmp_path, p, level, residues):
    # the local degree and the level test read one product of the norm
    # subgroups
    spec = tmp_path / "local.toml"
    spec.write_text(
        f'kind = "number-local"\np = {p}\nlevel = {level}\n' + "".join(
            f"[[primes]]\ne = 2\nf = 1\nnorm_residues = {r}\n"
            for r in residues))
    calls = []
    product = abelian.product
    monkeypatch.setattr(abelian, "product", lambda a, b: (
        calls.append((a, b)), product(a, b))[1])
    for flag in ([], ["--json"]):
        calls.clear()
        assert run_cli(["number", "--spec", str(spec)] + flag)[0] == 0
        assert len(calls) == 1


def _hnfs_under(monkeypatch, attr):
    """(argument, row count of every HNF taken under the call) for each
    call of `genus_number.<attr>` from now on."""
    calls, inside = [], []
    inner, hnf = getattr(genus_number, attr), abelian.hnf

    def wrapper(x):
        calls.append((x, []))
        inside.append(calls[-1][1])
        try:
            return inner(x)
        finally:
            inside.pop()

    def counted(rows, *args):
        if inside:
            inside[-1].append(len(rows))
        return hnf(rows, *args)

    monkeypatch.setattr(genus_number, attr, wrapper)
    monkeypatch.setattr(abelian, "hnf", counted)
    return calls


@pytest.mark.parametrize("kind, name, stacked", [
    ("number", "multi_prime", 1), ("function", "cyclo_p", 0)])
def test_report_forms_the_extended_group_in_one_product(
        monkeypatch, kind, name, stacked):
    # X_2 X_3 X_5 of multi_prime is one HNF of the rows X R_p of all three
    # primes stacked, and no X_p takes an HNF of its own under it; the one
    # component of cyclo_p is the extended group, one HNF of its rows
    per_call = _hnfs_under(monkeypatch, "extended_genus_characters")
    for flag in ([], ["--json"]):
        characters.component_split.cache_clear()
        assert run_cli([kind, "--spec", os.path.join(SCRIPTS, name + ".toml")]
                       + flag)[0] == 0
    assert len(per_call) == 2
    for x, rows in per_call:
        primes = len(x.ambient.components())
        assert rows == [x.ambient.group.rank * primes]
        assert (primes > 1) == stacked


@pytest.mark.parametrize("command, name", ABELIAN_SCRIPTS)
def test_report_hnfs_and_row_products(monkeypatch, command, name):
    # on a fresh ambient and X, a report forms the rows X R_p once per
    # prime and takes one HNF per X_p, one for their product when there
    # are several, and three for the genus group: the span of the units at
    # infinity, the plus part's pairing kernel and the join with X
    matrices = []
    matrix = abelian.CRTUnitGroup.component_matrix

    def counted_matrix(self, key):
        matrices.append(key)
        return matrix(self, key)

    monkeypatch.setattr(abelian.CRTUnitGroup, "component_matrix",
                        counted_matrix)
    reports = _hnfs_under(monkeypatch, "build_report")
    for cache in (characters.numeric_ambient, characters._ff_ambient_cached,
                  characters.component_split):
        cache.cache_clear()
    assert run_cli([command, "--spec",
                    os.path.join(SCRIPTS, name + ".toml"), "--json"])[0] == 0
    (x, rows), = reports
    primes = len(x.ambient.components())
    assert len(matrices) == primes
    assert len(rows) == primes + (primes > 1) + 3


def test_function_local_entry_without_norm_data_counts_as_full(tmp_path):
    head = 'kind = "function-local"\nq = 3\nn_max = 4\n'
    first = "[[primes]]\ne = 4\nt = 3\nnorm_generators = {}\n"
    second = "[[primes]]\ne = 1\nt = 6\n"
    mixed, full = tmp_path / "mixed.toml", tmp_path / "full.toml"
    mixed.write_text(head + first.format("[[2, 2, 1, 1], [1, 0, 0, 1]]")
                     + second)
    full.write_text(head + first.format('"full"') + second
                    + 'norm_generators = "full"\n')
    for flag in ([], ["--json"]):
        code, out = run_cli(["function", "--spec", str(mixed)] + flag)
        assert code == 0
        assert (code, out) == run_cli(["function", "--spec", str(full)] + flag)


def test_quadratic_reports_take_no_dlog(monkeypatch, tmp_path):
    made = _count_logs(monkeypatch)
    rng = random.Random(1901)
    spec = tmp_path / "quad.toml"
    for _ in range(60):
        d = 0
        while not characters.is_fundamental_discriminant(d):
            d = rng.randint(-5000, 5000)
        spec.write_text(f'kind = "number-quadratic"\ndiscriminant = {d}\n')
        code, _ = run_cli(["number", "--spec", str(spec), "--json"])
        assert code == 0 and made == [], d


# ---------------------------------------------------------------------------
# Fuzz gate: valid and mutated descriptor documents

SPECS = sorted(name for name in os.listdir(SCRIPTS) if name.endswith(".toml"))
MUTATIONS = {
    "wrong type": ["x", True, [1], 1],
    "out of range": [-1, 0, 99, 10 ** 6 + 1],
    "huge integer": [10 ** 30, -(10 ** 30), 2 ** 64 + 1],
    "empty array": [[]],
}


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return "[" + ", ".join(map(_render, value)) + "]"
    return str(value)


def _render_document(doc):
    """The document text of a parsed descriptor: arrays of tables last."""
    lines, tables = [], []
    for key, value in doc.items():
        if isinstance(value, list) and value \
                and all(isinstance(v, dict) for v in value):
            for entry in value:
                tables += ["", f"[[{key}]]"] + [
                    f"{k} = {_render(v)}" for k, v in entry.items()]
        else:
            lines.append(f"{key} = {_render(value)}")
    return "\n".join(lines + tables) + "\n"


def _slots(value, path=()):
    """Paths to every value inside a parsed document but the root."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield from _slots(v, path + (key,))


@st.composite
def _documents(draw):
    """(command, document, mutations): a script, unchanged or with one or
    two values dropped or replaced."""
    with open(os.path.join(SCRIPTS, draw(st.sampled_from(SPECS))),
              encoding="utf-8") as fh:
        doc = cli.parse_document(fh.read())
    command = doc["kind"].split("-")[0]
    kinds = draw(st.lists(st.sampled_from(["dropped key"] + sorted(MUTATIONS)),
                          max_size=2))
    for kind in kinds:
        slots = list(_slots(doc))
        if not slots:
            break
        *parent, last = draw(st.sampled_from(slots))
        node = doc
        for key in parent:
            node = node[key]
        if kind == "dropped key":
            del node[last]
        elif isinstance(node[last], dict):
            node.clear()  # a table of an array of tables loses every key
        else:
            node[last] = draw(st.sampled_from(MUTATIONS[kind]))
    return command, doc, kinds


def _run_captured(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(args)
    return code, out, err.getvalue()


# documents that once hung in a huge power or crashed on a non-table
@example(("number", {"kind": "number-local", "p": 2, "level": 10 ** 30,
                     "primes": [{"e": 4, "f": 1, "norm_residues": [15]}]},
          ["huge integer"]))
@example(("function", {"kind": "function-local", "q": 3, "n_max": 10 ** 30,
                       "primes": [{"e": 4, "t": 3}]}, ["huge integer"]))
@example(("number", {"kind": "number-local", "p": 2, "level": 4,
                     "primes": [1]}, ["wrong type"]))
@given(_documents())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_cli_fuzz_exits_cleanly_and_agrees_with_the_oracle(case):
    """Every document exits 0, 2, 3 or 4 without a traceback; a valid
    abelian one with |G| <= 32 agrees with the oracle."""
    command, doc, kinds = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.toml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render_document(doc))
        code, out, err = _run_captured([command, "--spec", path, "--json"])
        assert code in (0, 2, 3, 4), (kinds, doc, err)
        assert "Traceback" not in err
        if kinds or doc["kind"] not in cli.ABELIAN_KINDS:
            return
        assert code == 0
        order = math.prod(int(c) for c in json.loads(out)["unit_group"]
                          .replace("C", "").split(" x "))
        if order <= 32:
            code, out, err = _run_captured(["oracle", "--spec", path,
                                            "--json"])
            payload = json.loads(out)
            assert code == 0 and "Traceback" not in err
            assert [payload[k] for k in payload
                    if k.endswith("_matches_closed_form")] == [True, True]


def test_console_script_is_installed():
    out = subprocess.run(["genusctl", "number", "--spec",
                          os.path.join(SCRIPTS, "trivial.toml"), "--json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["field_degree"] == 1
