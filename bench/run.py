"""Benchmark of the newform-products CLI: cold, isolated, checked runs.

    python3 bench/run.py --workload exponents|search|verify --seed N \
        --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --record [--smoke]

Run from the repository root.  Every CLI command runs in a fresh interpreter
with ``NEWFORM_OFFLINE=1`` and a fresh empty ``NEWFORM_CACHE_DIR``, one child
at a time, its stdout streamed to a file.  Each output is checked against
the reference recorded in bench/references.json and against an anchor taken
from the paper; a failed check counts in ``failed``.

--trace 0 reports the end-to-end metrics, each the median over the units run
in --seconds.  --trace 1 runs the seed's first unit under bench/tracer.py
and reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  --record runs every
command once and writes bench/references.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

LAUNCH = os.path.join(HERE, "launch.py")
REFERENCES = os.path.join(HERE, "references.json")
WORK_DIR = ".bench_work"
CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 9

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics and their units; "<span>.self_s" and "<span>.calls" come
# from tracer.summarize, the rest from counts taken at the span boundaries.
PER_LAYER = {
    "elliptic.count_points.self_s": "s",
    "elliptic.count_points.calls": "count",
    "elliptic.an_expansion.self_s": "s",
    "products.log_derivative_quotient.self_s": "s",
    "products.log_derivative_quotient.calls": "count",
    "products.extract_exponents.self_s": "s",
    "products.unit_product.self_s": "s",
    "products.unit_product.calls": "count",
    "products.g_max_bits": "bits",
    "qseries.mul.self_s": "s",
    "qseries.mul.calls": "count",
    "qseries.inverse.self_s": "s",
    "qseries.inverse.calls": "count",
    "qseries.pow_int.self_s": "s",
    "qseries.pow_int.calls": "count",
    "qseries.frac_mul.self_s": "s",
    "qseries.frac_mul.calls": "count",
    "eta.eta_signed.self_s": "s",
    "eta.verify_e2_identity.self_s": "s",
    "theta.theta_product.self_s": "s",
    "theta.verify_eta256_identities.self_s": "s",
    "theta.verify_weight4.self_s": "s",
    "registry.extend_block.self_s": "s",
    "registry.extend_block.calls": "count",
    "search.enumerate_candidates.self_s": "s",
    "search.combos": "count",
    "search.candidates": "count",
    "search.candidate_yield": "ratio",
    "search.assemble.self_s": "s",
    "search.assemble.calls": "count",
    "search.match_against.self_s": "s",
    "search.matches": "count",
    "search.match_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def is_exact_count(name: str) -> bool:
    """Counts that must repeat exactly between two traced runs of one unit."""
    return name.endswith(".calls") or name in (
        "search.combos", "search.candidates", "search.matches",
        "products.g_max_bits", "cli.output_bytes")


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int


class Bench:
    """Spawns, times and checks children inside a private work directory."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), NEWFORM_OFFLINE="1")
        self.serial = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pending: list = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh(self, stem: str) -> tuple[str, dict]:
        """A new output path, and an environment with a new empty cache dir."""
        self.serial += 1
        cache = os.path.join(self.work, f"cache-{self.serial}")
        os.makedirs(cache)
        return os.path.join(self.work, f"{stem}-{self.serial}"), dict(self.env, NEWFORM_CACHE_DIR=cache)

    def spawn(self, cmd: list[str], stdout_path: str, env: dict) -> Child:
        """Run one child to completion through bench/launch.py, which times
        it and reads its own rusage with os.wait4 (RUSAGE_CHILDREN would
        give the running maximum over all children instead)."""
        launcher = [sys.executable, "-I", "-S", LAUNCH, str(CHILD_TIMEOUT_S),
                    stdout_path, stdout_path + ".err", "--", *cmd]
        start = time.perf_counter()
        proc = subprocess.run(launcher, cwd=self.root, env=env, capture_output=True, text=True)
        try:
            wall, cpu, rss_kb, code = proc.stdout.split()
            child = Child(float(wall), float(cpu), int(rss_kb) / 1024, int(code))
        except ValueError:
            self.errors.append(f"launcher failed on {cmd[1:]}: {proc.stderr.strip()[-300:]}")
            child = Child(time.perf_counter() - start, 0.0, 0.0, -1)
        if os.path.exists(stdout_path + ".err"):
            os.remove(stdout_path + ".err")
        return child

    def setup_sample(self) -> float:
        path, env = self.fresh("setup")
        child = self.spawn([sys.executable, "-c", "import newform_products.cli"], path, env)
        os.remove(path)
        if child.exit != 0:
            raise SystemExit(f"importing newform_products.cli failed (exit {child.exit})")
        return child.wall_s

    def flush_checks(self) -> None:
        """Check the pending outputs in a separate checker process."""
        if not self.pending:
            return
        jobs = os.path.join(self.work, "jobs.json")
        with open(jobs, "w", encoding="utf-8") as fh:
            json.dump(self.pending, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), "check",
                               REFERENCES, jobs], cwd=self.root, capture_output=True, text=True)
        try:
            verdicts = json.loads(proc.stdout)
        except ValueError:
            verdicts = None
        if not isinstance(verdicts, list) or len(verdicts) != len(self.pending):
            verdicts = [f"checker failed: {proc.stderr.strip()[-300:]}"] * len(self.pending)
        for (argv, _, path), error in zip(self.pending, verdicts):
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors.append(f"{workloads.command_key(argv)}: {error}")
            if os.path.exists(path):
                os.remove(path)
        self.pending = []

    def run_unit(self, unit) -> tuple[float, float, float]:
        """Each command in its own `python -m newform_products`.

        Returns wall and CPU seconds summed over the commands, and the
        largest peak RSS in MB.
        """
        wall = cpu = rss = 0.0
        for argv in unit.commands:
            path, env = self.fresh("out")
            child = self.spawn([sys.executable, "-m", "newform_products", *argv], path, env)
            self.pending.append([list(argv), child.exit, path])
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        return wall, cpu, rss

    def run_unit_traced(self, unit, run_id: str) -> tuple[float, list, dict]:
        """Each command in its own process, calling cli.main under tracer.py.

        Returns wall time, the spans of all commands, and their summed counts.
        """
        wall = 0.0
        spans: list = []
        counts: dict = {}
        script = os.path.join(HERE, "tracer.py")
        for i, argv in enumerate(unit.commands):
            path, env = self.fresh("traced")
            spans_path = path + ".spans"
            child = self.spawn([sys.executable, script, spans_path, path, f"{run_id}.{i}",
                                "--", *argv], path + ".log", env)
            self.pending.append([list(argv), child.exit, path])
            wall += child.wall_s
            os.remove(path + ".log")
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                os.remove(spans_path)
            except (OSError, ValueError) as ex:
                self.errors.append(f"traced {workloads.command_key(argv)}: no spans ({ex})")
                continue
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, r] for n, s, e, p, r in doc["spans"]]
            for key, value in doc["counts"].items():
                if key == "products.g_max_bits":
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        return wall, spans, counts


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name:<12} {statistics.median(values):10.4f} {unit:<3} "
            f"(median of {len(values)}; q1 {q1:.4f}, q3 {q3:.4f})")


def measure_untraced(bench: Bench, units: list, seconds: float) -> dict:
    """Repeat whole rounds of units until the next round would overrun."""
    start = time.perf_counter()
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    while True:
        round_start = time.perf_counter()
        for unit in units:
            if len(samples["setup_s"]) < SETUP_SAMPLES:
                samples["setup_s"].append(bench.setup_sample())
            wall, cpu, rss = bench.run_unit(unit)
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
        bench.flush_checks()
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(bench.setup_sample())
    for name, values in samples.items():
        print(describe(name, values, END_TO_END[name]))
    return {name: {"value": statistics.median(values), "unit": END_TO_END[name]}
            for name, values in samples.items()}


def measure_traced(bench: Bench, unit, seconds: float, trace_path: str) -> dict:
    """Alternate untraced and traced runs of one unit; at least two traced."""
    start = time.perf_counter()
    plain: list[float] = []
    runs: list[tuple[float, list, dict, dict]] = []  # spans kept for the first only
    while True:
        pair_start = time.perf_counter()
        plain.append(bench.run_unit(unit)[0])
        for _ in range(2 if not runs else 1):
            wall, spans, counts = bench.run_unit_traced(unit, f"run{len(runs)}")
            runs.append((wall, spans if not runs else [], counts, tracer.summarize(spans)))
        bench.flush_checks()
        now = time.perf_counter()
        if (now - start) + (now - pair_start) > seconds:
            break
    rows = []
    for _, _, counts, summary in runs:
        row = dict(counts)
        for name, entry in summary.items():
            row[f"{name}.self_s"] = entry["self_s"]
            row[f"{name}.calls"] = entry["calls"]
        rows.append(row)
    for name in PER_LAYER:
        if is_exact_count(name) and len({row.get(name) for row in rows}) != 1:
            bench.errors.append(f"{name} differs between traced runs: {[r.get(name) for r in rows]}")
    first = rows[0]
    traced_wall = statistics.median(run[0] for run in runs)
    plain_wall = statistics.median(plain)
    values = {
        name: statistics.median(row.get(name, 0) for row in rows) if name.endswith(".self_s")
        else first.get(name, 0)
        for name in PER_LAYER
    }
    values["search.candidate_yield"] = ratio(first.get("search.candidates", 0), first.get("search.combos", 0))
    values["search.match_ratio"] = ratio(first.get("search.matches", 0), first.get("search.candidates", 0))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"unit": unit.label, "fields": ["name", "start_ns", "end_ns", "parent", "run"],
                   "spans": runs[0][1]}, fh)
    print(f"{unit.label}: {len(runs)} traced, {len(plain)} untraced; traced {traced_wall:.4f} s, "
          f"untraced {plain_wall:.4f} s, overhead {values['trace.overhead_s']:.4f} s; "
          f"spans in {trace_path}")
    for name, unit_name in PER_LAYER.items():
        print(f"{name:<42} {values[name]:>14.6g} {unit_name}")
    return {name: {"value": values[name], "unit": unit_name} for name, unit_name in PER_LAYER.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def record(root: str, size: str) -> int:
    """Run every command once and store exit, status and results digest."""
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    bench = Bench(root)
    try:
        for argv in workloads.all_commands(size):
            path, env = bench.fresh("out")
            child = bench.spawn([sys.executable, "-m", "newform_products", *argv], path, env)
            doc = workloads.load_output(path)
            refs[workloads.command_key(argv)] = workloads.reference_record(child.exit, doc)
            print(f"{child.wall_s:7.2f} s  exit {child.exit}  {workloads.command_key(argv)}")
    finally:
        bench.close()
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/selftest.py")
    parser.add_argument("--record", action="store_true", help="rewrite bench/references.json")
    args = parser.parse_args(argv)
    root = os.getcwd()
    size = "smoke" if args.smoke else "full"
    if not os.path.isfile(os.path.join(root, "src", "newform_products", "cli.py")):
        print("error: run from the repository root (src/newform_products not found)", file=sys.stderr)
        return 2
    if args.record:
        return record(root, size)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(REFERENCES):
        print(f"error: {REFERENCES} missing; record it with --record", file=sys.stderr)
        return 2

    units = workloads.rounds_for(args.workload, args.seed, size)
    bench = Bench(root)
    try:
        bench.setup_sample()  # untimed: writes the bytecode caches once
        if args.trace:
            trace_path = os.path.join(root, WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
            metrics = measure_traced(bench, units[0], args.seconds, trace_path)
        else:
            metrics = measure_untraced(bench, units, args.seconds)
    finally:
        bench.close()
    for error in bench.errors:
        print(f"FAILED {error}")
    print(f"fail_frac    {bench.failed / bench.attempted:.4f} "
          f"({bench.failed} of {bench.attempted} commands)")
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
