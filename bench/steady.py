"""Steadiness check and baseline for the benchmark in BENCHMARK.json.

    python3 bench/steady.py [--seed0 1] [--out FILE]

Run from the repository root.  Makes two sets of ten untraced runs of every
workload, each run with a different seed, and reports per workload and
end-to-end metric: the median of each set, its spread (the distance between
the first and third quartiles over the median), whether the spread is below
a third of the metric's bound ("steady"; setup_s is exempt from this one),
and whether the two medians differ by no more than the bound ("agree").
Exits 1 if any run failed a check, any spread exceeds its bound, or the two
sets disagree.  ``--out`` also makes one traced run per workload and writes
every figure, with the Python version, git SHA, nproc and load average at
start, to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}"
              f"{proc.stderr[-2000:]}", flush=True)
        return {}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        print(f"  {workload:<9} seed {seed:<3} {took:5.1f} s  "
              + "  ".join(f"{k} {v:.4f}" for k, v in values.items()), flush=True)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    env = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": spec["run_seconds"],
        "runs_per_set": RUNS,
    }
    print(json.dumps(env), flush=True)

    values: dict = {}  # (set, workload) -> metric -> [values]
    ok = True
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for i in range(RUNS):
            seed = args.seed0 + s * RUNS + i
            for workload in names:
                got = run_once(spec, workload, seed)
                ok &= bool(got)
                for name, value in got.items():
                    values.setdefault((s, workload), {}).setdefault(name, []).append(value)

    report = {"environment": env, "workloads": {}}
    print(f"\n{'workload':<10} {'metric':<12} {'bound':>6} "
          + "".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(SETS))
          + f" {'drift':>7}  verdict")
    for workload in names:
        rows = report["workloads"].setdefault(workload, {})
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [values.get((s, workload), {}).get(name, []) for s in range(SETS)]
            if any(len(v) < 2 for v in sets):
                ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            steady = name == "setup_s" or all(sp < bound / 3 for sp in spreads)
            within = all(sp <= bound for sp in spreads)
            agree = abs(drift) <= bound
            ok &= within and agree
            verdict = ("steady" if steady else ("within bound" if within else "SPREAD TOO WIDE"))
            verdict += ", agree" if agree else ", MEDIANS DISAGREE"
            rows[name] = {"unit": metric["unit"], "bound": bound, "medians": medians,
                          "spreads": spreads, "drift": drift,
                          "values": sets, "verdict": verdict}
            print(f"{workload:<10} {name:<12} {bound:>6.2f} "
                  + "".join(f"{m:>11.4f} {sp:>8.3f}" for m, sp in zip(medians, spreads))
                  + f" {drift:>7.3f}  {verdict}")
    if args.out:
        report["traced"] = {}
        for workload in names:
            report["traced"][workload] = traced = run_once(spec, workload, args.seed0, trace=1)
            ok &= bool(traced)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
