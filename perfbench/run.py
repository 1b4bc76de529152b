"""Seeded benchmark of genusfields: one workload per run, one client.

    python3 perfbench/run.py --workload q-reports --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark imports the package from
`src/` of that checkout (never an installed copy), generates the
workload's inputs from the seed, and runs a closed loop: each operation
starts when the previous one has returned.  Every output is checked
against exact invariants, the first cycles against stored digests, and
small cases against the exhaustive oracle, outside the timed region.

`--trace 0` reports the end-to-end metrics of a time-bounded run.
`--trace 1` runs a fixed number of cycles three times with cold caches
(untraced, traced, untraced) and reports the per-layer metrics of the
traced pass; it also writes the spans and a per-layer table under
perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every operation passed its checks, 1 when one failed, 2 on a usage or
set-up error.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES = 7
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Put this checkout's src/ first on the path and import from it."""
    if not (SRC / "genusfields" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import genusfields
    if Path(genusfields.__file__).resolve().parent != SRC / "genusfields":
        raise SystemExit("perfbench: imported genusfields from outside src/")
    import workloads
    return workloads


class Session:
    """Runs and checks the operations of one workload.

    It keeps a latency per operation, digests for the first
    `digest_cycles` cycles, problems for failed operations only, and the
    distinct cases for the oracle, so memory does not grow with the
    number of operations beyond eight bytes each."""

    def __init__(self, workload, tracer=None, digest_cycles=None):
        self.workload = workload
        self.tracer = tracer
        self.digest_cycles = digest_cycles or workload.digest_cycles
        self.latencies = array("d")
        self.completed = 0
        self.output_bytes = 0
        self.digests = []       # (cycle, op index, spec, digest)
        self.problems = {}      # op index -> (spec, [problem, ...])
        self.cases = {}         # key -> (thunk, [(op index, spec), ...])

    def fail(self, index, spec, problem):
        self.problems.setdefault(index, (spec, []))[1].append(problem)

    def run(self, cycle, spec):
        index = len(self.latencies)
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            result = self.workload.execute(spec)
        except Exception:
            result = None
            error = "raised: " + traceback.format_exc(limit=3)
        self.latencies.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.op = None
        if result is None:
            self.fail(index, spec, error)
            return
        self.completed += 1
        workload = self.workload
        try:
            canonical, problems = workload.check(spec, result)
            self.output_bytes += len(workload.report_output(result).encode())
            case = None if problems else workload.oracle_case(spec, result)
        except Exception:
            self.fail(index, spec, "check raised: "
                      + traceback.format_exc(limit=3))
            return
        for problem in problems:
            self.fail(index, spec, problem)
        if cycle < self.digest_cycles:
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:32]
            self.digests.append((cycle, index, spec, digest))
        if case is not None:
            key, thunk = case
            self.cases.setdefault(key, (thunk, []))[1].append((index, spec))

    def oracle_check(self):
        """Cross-check each distinct small case against the oracle."""
        for thunk, owners in self.cases.values():
            try:
                problems = thunk()
            except Exception:
                problems = ["oracle raised: "
                            + traceback.format_exc(limit=3)]
            for index, spec in owners:
                for problem in problems:
                    self.fail(index, spec, problem)
        return len(self.cases)


def cycle_digests(session, count):
    digests = []
    for c in range(count):
        h = hashlib.sha256()
        for cycle, _, _, digest in session.digests:
            if cycle == c:
                h.update(digest.encode())
        digests.append(h.hexdigest()[:16])
    return digests


def compare_reference(args, session):
    """Fail every operation of a cycle whose digest differs from the
    stored one.  Seeds without a stored reference are reported, not
    failed."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh).get(args.workload, {}).get(str(args.seed))
    except FileNotFoundError:
        stored = None
    if stored is None:
        print(f"perfbench: no stored digest for {args.workload} seed "
              f"{args.seed}; invariant and oracle checks only",
              file=sys.stderr)
        return
    count = session.workload.digest_cycles
    for c, (got, want) in enumerate(zip(cycle_digests(session, count),
                                        stored)):
        if got != want:
            for cycle, index, spec, _ in session.digests:
                if cycle == c:
                    session.fail(index, spec,
                                 f"cycle {c} digest {got} != {want}")


def min_ops(percentile):
    """Operations needed to leave ten samples above the percentile."""
    return math.ceil(10 / (1 - percentile / 100)) + 1


def tail_latency(latencies, percentile):
    lat = sorted(latencies)
    return lat[max(math.ceil(percentile / 100 * len(lat)) - 1, 0)]


class SetupProbes:
    """Time from starting a fresh interpreter to the point where the first
    operation could run: import, plus generation of the first cycle's
    inputs and descriptor files.  Later cycles are generated between
    cycles, outside the timed region, as in the run itself.  The probes are
    spread over the run, between cycles, so a slow phase of the machine
    weighs on set-up as it does on the operations."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-probe"]
        self.times = []

    def due(self, fraction):
        """Run the probes due when `fraction` of the run has passed."""
        while len(self.times) < SETUP_PROBES \
                and len(self.times) <= fraction * SETUP_PROBES:
            self._probe()

    def median(self):
        self.due(1.0)
        return statistics.median(self.times)

    def _probe(self):
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed ({code})")
        self.times.append(elapsed)


def make_workload(workloads, args):
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return cls(args.seed, workdir)


def timed_run(session, seconds, between):
    """Whole cycles until `seconds` of wall time have passed in them, and
    at least the cycles the digest covers and the operations the tail
    needs.  Each cycle's inputs are generated just before it, and
    `between(fraction)` and the workload's `before_cycle` run between
    cycles, all outside that time."""
    workload = session.workload
    needed = min_ops(workload.tail_percentile)
    elapsed = 0.0
    c = 0
    while c < workload.digest_cycles or len(session.latencies) < needed \
            or elapsed < seconds:
        between(elapsed / seconds)
        specs = workload.cycle(c)
        workload.before_cycle()
        start = time.perf_counter()
        for spec in specs:
            session.run(c, spec)
        elapsed += time.perf_counter() - start
        c += 1
    return c


def end_to_end(args, workloads):
    import tracing

    workload = make_workload(workloads, args)
    probes = SetupProbes(args)
    session = Session(workload)
    try:
        n_cycles = timed_run(session, args.seconds, probes.due)
        ambient = tracing.cache_use(tracing.AMBIENT_CACHES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = probes.median()
        compare_reference(args, session)
        oracle_start = time.perf_counter()
        n_cases = session.oracle_check()
        oracle_s = time.perf_counter() - oracle_start
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    latencies = session.latencies
    pct = workload.tail_percentile
    metrics = {
        "ops_per_s": session.completed / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_latency(latencies, pct) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} "
          f"operations in {n_cycles} cycles; {n_cases} oracle cases in "
          f"{oracle_s:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'op_tail_ms':<12} is p{pct:g} over {len(latencies)} samples")
    print(f"  {'fail_ratio':<12} "
          f"{len(session.problems) / len(latencies):.6g} ratio")
    print(f"  {ambient}")
    return [session], {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}


def traced(args, workloads):
    import tracing

    workload = make_workload(workloads, args)
    caches = workloads.package_caches()

    def one_pass(tracer=None):
        for cache in caches:
            cache.cache_clear()
        session = Session(workload, tracer, workload.trace_cycles)
        for c, specs in enumerate(cycles):
            workload.before_cycle()
            for spec in specs:
                session.run(c, spec)
        return session

    tracer = tracing.Tracer()
    try:
        cycles = [workload.cycle(c) for c in range(workload.trace_cycles)]
        # the first pass also warms the interpreter and the heap, so the
        # overhead is measured against the untraced pass after the traced one
        warm = one_pass()
        tracer.install()
        try:
            session = one_pass(tracer)
            ambient_hits = tracing.cache_hit_ratio(tracing.AMBIENT_CACHES)
            ambient = tracing.cache_use(tracing.AMBIENT_CACHES)
            timed_counts = tracer.counts.copy()
        finally:
            tracer.uninstall()
        plain = one_pass()
        tracer.install()
        try:
            lattice_before = tracing.LATTICE_CACHE.cache_info()
            session.oracle_check()
            lattice_after = tracing.LATTICE_CACHE.cache_info()
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    for other in (warm, plain):
        if [d[3] for d in other.digests] != [d[3] for d in session.digests]:
            session.fail(0, "traced pass", "traced outputs differ from an "
                         "untraced pass")
    for s in (warm, session):
        compare_reference(args, s)
    specs = {index: spec for _, index, spec, _ in session.digests}
    for group, _, _, _, op in tracer.spans:
        if group.startswith("oracle.") and op is not None:
            session.fail(op, specs.get(op), "oracle span inside a timed "
                         "operation")

    calls, self_s = tracer.layer_totals(timed=True)
    _, oracle_self = tracer.layer_totals(timed=False)
    oracle_counts = tracer.counts - timed_counts
    hits = lattice_after.hits - lattice_before.hits
    misses = lattice_after.misses - lattice_before.misses
    conductor_calls = calls["characters.conductor"]
    values = {}
    for name, _, _ in tracing.LAYER_METRICS:
        group, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[group] + timed_counts[group]
        elif kind == "self_s":
            values[name] = (oracle_self if group.startswith("oracle.")
                            else self_s)[group]
    values.update({
        "abelian.largest_group_order": tracer.largest_group_order,
        "characters.conductor.kernels_per_call":
            timed_counts["characters.kernels"] / conductor_calls
            if conductor_calls else 0.0,
        "characters.residues_enumerated": timed_counts["characters.residues"],
        "characters.ambient_cache.hit_ratio": ambient_hits,
        "oracle.subgroups_enumerated":
            oracle_counts["oracle.subgroups_enumerated"],
        "oracle.lattice_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "cli.output_bytes": session.output_bytes,
        "trace.overhead_ratio":
            sum(session.latencies) / sum(plain.latencies),
    })
    write_trace_files(args, tracer, values, len(session.latencies))
    print(f"{ambient} in the traced pass")
    return [warm, session, plain], {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in tracing.LAYER_METRICS}


def write_trace_files(args, tracer, values, n_ops):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-{args.seed}"
    with gzip.open(f"{stem}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    lines = [f"per-layer metrics: {args.workload} seed {args.seed}, "
             f"{n_ops} traced operations, {len(tracer.spans)} spans"]
    lines += [f"  {name:<42} {value:.6g}" for name, value in values.items()]
    table = "\n".join(lines) + "\n"
    Path(f"{stem}.layers.txt").write_text(table, encoding="utf-8")
    sys.stderr.write(table)


def setup_probe(args, workloads):
    workload = make_workload(workloads, args)
    try:
        workload.cycle(0)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads = import_package()
        if args.setup_probe:
            setup_probe(args, workloads)
            return 0
        if args.trace:
            sessions, metrics = traced(args, workloads)
        else:
            sessions, metrics = end_to_end(args, workloads)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    attempted = sum(len(s.latencies) for s in sessions)
    failed = [p for s in sessions for p in s.problems.values()]
    for spec, problems in failed[:10]:
        print(f"perfbench: FAILED {spec}: {problems[:3]}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
