#!/usr/bin/env python3
"""rowpress benchmark: end-to-end and per-layer numbers for one workload.

Run from the root of a rowpress checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Builds `rowpress` and `rp_probe` from source (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), prints a calibration block,
runs the workload, checks every job's artifacts against
expected_digests.json, and prints as its last line

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  Lines before it carry diagnostics:
calibration, sample counts, failed_frac, span self times.

    python3 perfbench/run.py --workload W --trace 1 --record

rewrites expected_digests.json's entries for W from this build (only
after a change that is meant to alter the program's outputs).
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from rpbench import host, procs, stats, trace, workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_digests.json")
RUN_BUDGET_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def say(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="take this build's digests as the expected ones")
    args = ap.parse_args()
    if args.record and not args.trace:
        ap.error("--record needs --trace 1 (it covers every job kind)")

    try:
        rowpress, probe, bdir = host.build(ROOT)
    except procs.BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    with open(EXPECTED) as f:
        expected = json.load(f)
    if args.record:
        expected.pop(args.workload, None)
        expected.pop("probe_counts", None)
    work = os.path.join(bdir, "work", str(os.getpid()))
    os.makedirs(work)
    b = workloads.Bench(rowpress, work, procs.Deadline(RUN_BUDGET_S),
                        args.seed, args.seconds, expected, args.record)
    try:
        say({"calibration": host.calibration(probe, bdir, ROOT)})
        if args.trace:
            metrics, diagnostics = trace.run_traced(b, args.workload, probe)
            wanted = spec["per_layer"]
            say({"trace": diagnostics})
        else:
            metrics, samples = workloads.MEASURE[args.workload](b)
            wanted = spec["end_to_end"]
            say({"samples": samples})
    except (procs.BenchError, stats.TooFewSamples) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        procs.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    for problem in b.problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    say({"failed_frac": {"value": b.failed / max(b.attempted, 1),
                         "unit": "ratio"}})
    if args.record:
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    say({"correct": b.failed == 0 and b.attempted > 0,
         "attempted": b.attempted, "failed": b.failed,
         "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                 "unit": m["unit"]} for m in wanted}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
