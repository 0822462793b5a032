#!/usr/bin/env python3
"""Check that the committed artifact digests still reproduce.

Runs every job the benchmark digests (perfbench/rpbench/workloads.py:
the paper suite, the real-system demo, and the serve_mix kinds) with a
plain `rowpress run --format json,csv`, and compares each experiment's
artifact tree with perfbench/expected_digests.json through
rpbench.digest.tree_digest.  Exits 0 when every digest matches, 1 when
any differs or is missing.

    python3 tools/check_digests.py [--rowpress build/bench/rowpress]

The suite and the real-system run use THREADS engine threads (serve_mix
jobs keep their own threads 1).  Artifacts do not depend on the thread
count; the digest drops result.json's `config` member, which records it.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from rpbench import digest, workloads  # noqa: E402

THREADS = 4


def flags(config):
    """`--key value` pairs of a serve-style config dict."""
    out = []
    for key, value in config.items():
        out += ["--" + key, value]
    return out


def jobs():
    """(workload, experiments, options) for every digested run."""
    out = [("suite", list(workloads.SUITE_EXPERIMENTS),
            list(workloads.SUITE_OPTIONS) + ["--threads", str(THREADS)]),
           ("realsystem", ["fig23"],
            flags(dict(workloads.REALSYSTEM_CONFIG,
                       threads=str(THREADS))))]
    # One run per distinct option set of the serve_mix kinds.
    groups = {}
    for kind in sorted(workloads.SERVE_KINDS):
        config = dict(workloads.SERVE_BASE, **workloads.SERVE_KINDS[kind])
        groups.setdefault(tuple(sorted(config.items())), []).append(kind)
    for config, kinds in sorted(groups.items()):
        out.append(("serve_mix", kinds, flags(dict(config))))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rowpress",
                    default=os.path.join(ROOT, "build", "bench", "rowpress"))
    args = ap.parse_args()

    with open(os.path.join(PERFBENCH, "expected_digests.json")) as f:
        expected = json.load(f)
    # Ambient RP_*/ROWPRESS_* settings would change what is computed.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("RP_", "ROWPRESS_"))}
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    bad = []
    total = matched = 0
    with tempfile.TemporaryDirectory(prefix="rp-digests-") as tmp:
        for i, (workload, exps, opts) in enumerate(jobs()):
            out = os.path.join(tmp, "%s-%d" % (workload, i))
            argv = [args.rowpress, "run", *exps, *opts,
                    "--format", "json,csv", "--out", out]
            total += len(exps)
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                bad.append("%s: `%s` exited %d"
                           % (workload, " ".join(argv[1:]),
                              proc.returncode))
                continue
            for exp in exps:
                want = expected.get(workload, {}).get(exp)
                if want is None:
                    bad.append("%s/%s: no expected digest" % (workload, exp))
                elif not digest.check(os.path.join(out, exp), want):
                    bad.append("%s/%s: digest mismatch" % (workload, exp))
                else:
                    matched += 1
    for line in bad:
        print("check_digests: " + line, file=sys.stderr)
    print("check_digests: %d of %d digests match" % (matched, total))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
