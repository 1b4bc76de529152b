"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q perfbench/test_bench.py

Each test runs perfbench/run.py in a subprocess, as the benchmark's
users do, on tiny sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "0",
                         "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected("end_to_end")
    for name, unit in got.items():
        assert f"{name}" in proc.stdout and f" {unit}" in proc.stdout
    assert "fail_ratio   0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "0",
                         "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected("per_layer")
    # workload isolation as predicted
    if workload != "fq-sweep":
        assert all(v["value"] == 0 for k, v in metrics.items()
                   if k.startswith("fqpoly.") and k.endswith(".calls"))
    if workload == "lattice":
        assert metrics["characters.conductor.calls"]["value"] == 0
    assert (BENCH / "out" / f"{workload}-0.spans.jsonl.gz").is_file()


def test_traced_counts_repeat_exactly():
    runs = [bench("--workload", "lattice", "--seed", "3", "--seconds", "0.2",
                  "--trace", "1")[1]["metrics"] for _ in range(2)]
    for name, value in runs[0].items():
        if name.endswith((".calls", "_enumerated", "largest_group_order",
                          "output_bytes")):
            assert runs[1][name] == value, name


def copy_tree(tmp_path, with_program):
    """BENCHMARK.json and the benchmark's files, and the program's
    source if asked, in a fresh directory."""
    ignore = shutil.ignore_patterns("out", ".work", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_corrupted_reference_digest_fails(tmp_path):
    root = copy_tree(tmp_path, with_program=True)
    path = root / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    digests = reference["lattice"]["0"]
    digests[0] = "0" * len(digests[0])
    path.write_text(json.dumps(reference))
    proc, result = bench("--workload", "lattice", "--seed", "0",
                         "--seconds", "0.2", "--trace", "0", cwd=root)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] > 0
    assert "fail_ratio   0 ratio" not in proc.stdout


def test_without_the_program_exits_nonzero(tmp_path):
    root = copy_tree(tmp_path, with_program=False)
    proc, result = bench("--workload", "lattice", "--seed", "0",
                         "--seconds", "0.2", "--trace", "0", cwd=root)
    assert proc.returncode != 0 and result is None
