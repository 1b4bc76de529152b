"""Regenerate perfbench/reference.json: per workload and seed, the digests
of the canonical outputs of the first cycles every run completes.

    python3 perfbench/make_reference.py

It stores seeds 0 .. SEEDS - 1.  The digests pin the program's outputs
byte for byte, so regenerate them only when an output is meant to
change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

SEEDS = 100


def main():
    workloads = run.import_package()
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in range(SEEDS):
            workload = run.make_workload(
                workloads, argparse.Namespace(workload=name, seed=seed))
            try:
                session = run.Session(workload)
                for c in range(cls.digest_cycles):
                    specs = workload.cycle(c)
                    workload.before_cycle()
                    for spec in specs:
                        session.run(c, spec)
            finally:
                shutil.rmtree(workload.workdir, ignore_errors=True)
            if session.problems:
                raise SystemExit(f"{name} seed {seed}: {session.problems}")
            reference[name][str(seed)] = run.cycle_digests(
                session, cls.digest_cycles)
        print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
