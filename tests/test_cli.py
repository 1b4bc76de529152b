"""The genusctl command line: parsing, reports, determinism, exit codes."""

import contextlib
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
    matrix = characters.NumericAmbient.component_matrix

    def counted_restrict(chi, component):
        calls["restrict"] += 1
        return restrict(chi, component)

    def counted_matrix(self, component):
        calls["matrix"] += 1
        return matrix(self, component)

    monkeypatch.setattr(characters, "restrict_to_component", counted_restrict)
    monkeypatch.setattr(characters.NumericAmbient, "component_matrix",
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

    monkeypatch.setattr(characters.CharacterGroup, "characters", refuse)
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
