"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py [--baseline]

For every workload in BENCHMARK.json it makes RUNS untraced runs, seeds
1 .. RUNS, and prints, per end-to-end metric, the median and the quartile
spread (q3 - q1) / median from `statistics.quantiles(values, n=4)`,
against the metric's bound in BENCHMARK.json.  With `--baseline` it also
makes one traced run per workload and writes the medians, quartiles and
per-layer values, with the Python version, `nproc` and machine, to
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, RUNS + 1):
            for name, value in bench(workload, seed, spec["run_seconds"],
                                     0).items():
                values.setdefault(name, []).append(value)
        summary[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread}
            print(f"{workload:<10} {name:<12} median {med:<12.6g} spread "
                  f"{spread:.4f} (bound {bounds[name]})", flush=True)
    if args.baseline:
        layers = {w: bench(w, 1, spec["run_seconds"], 1) for w in summary}
        baseline = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": f"{platform.machine()}, {cpu_model()}",
            "run_seconds": spec["run_seconds"],
            "runs_per_workload": RUNS,
            "end_to_end": summary,
            "per_layer_seed_1": layers,
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
