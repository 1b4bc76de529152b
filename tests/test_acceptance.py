"""Acceptance suite: the ten primary criteria, one pass/fail line each.

Criteria 1 through 9 run the same verification functions that power
`genusctl selftest`, at their full advertised scales.  Criterion 10
exercises the command line itself: `selftest` exits 0 and reports are
byte-identical across runs.  It runs the CLI as `python -m
genusfields.cli` in a child interpreter (the same `main` that the
`genusctl` console script calls), so it needs no installed package.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from genusfields import characters, fqpoly, genus_number, selftest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
GENUSCTL = [sys.executable, "-m", "genusfields.cli"]


def _report(result, capsys):
    with capsys.disabled():
        print()
        print(result.line())
    assert result.ok, result.detail


def test_criterion_1_oracle_equivalence(capsys):
    start = time.time()
    result = selftest.criterion_oracle_equivalence()
    elapsed = time.time() - start
    _report(result, capsys)
    assert elapsed < 60, f"exhaustive oracle sweep took {elapsed:.1f}s"


def test_criterion_2_gap_bound(capsys):
    _report(selftest.criterion_gap_bound(), capsys)


def test_criterion_3_composition(capsys):
    _report(selftest.criterion_composition(), capsys)


def test_criterion_4_lattice_laws(capsys):
    _report(selftest.criterion_lattice_laws(), capsys)


def test_criterion_5_l2_trichotomy(capsys):
    _report(selftest.criterion_l2_trichotomy(), capsys)


def test_criterion_6_tame_formulas(capsys):
    _report(selftest.criterion_tame_formulas(), capsys)


def test_criterion_7_carlitz_laws(capsys):
    start = time.time()
    result = selftest.criterion_carlitz_laws()
    elapsed = time.time() - start
    _report(result, capsys)
    assert elapsed < 10, f"Carlitz law sweep took {elapsed:.1f}s"


def test_criterion_8_idele_quotient(capsys):
    # the q = 3 sweep reduces wide batches: the F_3 masks must not grow
    fld = fqpoly.fq_field(3)
    bits = fld._bits
    _report(selftest.criterion_idele_quotient(), capsys)
    assert fld._bits <= bits


def test_criterion_9_s_field_invariants(capsys):
    _report(selftest.criterion_s_field(), capsys)


def test_criterion_10_cli_determinism(capsys):
    env = dict(os.environ, GENUSCTL_BOUND="16")
    runs = [subprocess.run(GENUSCTL + ["selftest", "--json"],
                           capture_output=True, text=True, env=env)
            for _ in range(2)]
    ok = all(r.returncode == 0 for r in runs)
    identical = runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout) if ok else {}
    suites = {c["number"] for c in payload.get("criteria", [])}
    spec_runs = [subprocess.run(
        GENUSCTL + ["number", "--spec",
                    os.path.join(SCRIPTS, "quad_minus5.toml"), "--json"],
        capture_output=True, text=True, env=env) for _ in range(2)]
    reports_identical = (spec_runs[0].stdout == spec_runs[1].stdout
                         and spec_runs[0].returncode == 0)
    passed = (ok and identical and suites == set(range(1, 10))
              and reports_identical)
    with capsys.disabled():
        print()
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion 10 (CLI determinism): selftest ran suites "
              f"1-9 with exit 0 and byte-identical output; descriptor "
              f"reports byte-identical across runs")
    assert ok, "genusctl selftest did not exit 0"
    assert identical, "selftest output differs between runs"
    assert suites == set(range(1, 10)), f"suites run: {sorted(suites)}"
    assert reports_identical, "descriptor report differs between runs"


def test_a_failed_check_gives_its_fail_line(monkeypatch):
    # a wrong closed form: the full dual as every extended genus group
    monkeypatch.setattr(genus_number, "extended_genus_characters",
                        lambda x: characters.full_dual(x.ambient))
    assert selftest.criterion_oracle_equivalence(4).line() == (
        "FAIL criterion 1 (oracle equivalence): mismatch at modulus 3")


def test_other_errors_in_a_check_propagate(monkeypatch):
    def broken(x):
        raise RuntimeError("broken closed form")

    monkeypatch.setattr(genus_number, "extended_genus_characters", broken)
    with pytest.raises(RuntimeError, match="broken closed form"):
        selftest.criterion_oracle_equivalence(4)
