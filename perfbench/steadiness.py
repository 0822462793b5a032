#!/usr/bin/env python3
"""Steadiness report: is each metric steady enough for its bound?

Runs perfbench/run.py N times per workload, each with another seed,
then prints for every metric its median and quartiles over the runs,
its spread (interquartile distance over median) against its bound,
and how many independent samples each run took it from.  It flags the failure
modes a noisy benchmark shows:

  SPREAD    spread above the metric's bound
  THIRD     spread above a third of the bound (too close to call)
  TAIL<10   a percentile with fewer than 10 samples beyond it
  SINGLE    a metric taken from a single sample in a run

    python3 perfbench/steadiness.py --runs 10 --workloads suite,serve_mix

Run k of each workload uses seed k (1..N).

Exits 1 when any metric shows SPREAD, TAIL<10 or SINGLE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from rpbench import stats  # noqa: E402


def run_once(workload, seed):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = [json.loads(x) for x in done.stdout.splitlines()
             if x.startswith("{")]
    if done.returncode != 0 or not lines or "metrics" not in lines[-1]:
        raise RuntimeError("%s seed %d failed (exit %d): %s"
                           % (workload, seed, done.returncode,
                              done.stderr[-1000:]))
    run = dict(lines[-1])
    for line in lines[:-1]:
        run.update(line)
    return run


def independent(count):
    """Independent samples behind a metric in one run."""
    return count.get("independent", count["n"])


def flags_for(metric, runs, bound):
    values = [r["metrics"][metric]["value"] for r in runs]
    out = []
    sp = stats.spread(values)
    if sp > bound:
        out.append("SPREAD")
    elif sp > bound / 3:
        out.append("THIRD")
    counts = [r.get("samples", {}).get(metric) for r in runs]
    if any(c and independent(c) <= 1 for c in counts):
        out.append("SINGLE")
    if any(c and "beyond" in c and c["beyond"] < stats.MIN_BEYOND
           for c in counts):
        out.append("TAIL<10")
    return values, sp, counts, out


def report(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    header = ("%-11s %-24s %-6s %12s %12s %12s %7s %6s %6s  %s"
              % ("workload", "metric", "unit", "median", "q1", "q3",
                 "spread", "bound", "n/run", "flags"))
    print(header)
    print("-" * len(header))
    for workload, runs in results.items():
        for m in spec["end_to_end"]:
            name = m["name"]
            values, sp, counts, flags = flags_for(name, runs, bounds[name])
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            ns = sorted({independent(c) for c in counts if c}) or ["-"]
            n_text = ("%s" % ns[0] if len(ns) == 1
                      else "%s-%s" % (ns[0], ns[-1]))
            print("%-11s %-24s %-6s %12.6g %12.6g %12.6g %7.4f %6.2f %6s  %s"
                  % (workload, name, m["unit"], med, q1, q3, sp,
                     bounds[name], n_text, " ".join(flags)))
            bad |= bool({"SPREAD", "SINGLE", "TAIL<10"} & set(flags))
    return bad


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(1, args.runs + 1):
            results[workload].append(run_once(workload, seed))
            print("ran %s seed %d" % (workload, seed), file=sys.stderr)
    return 1 if report(results, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
