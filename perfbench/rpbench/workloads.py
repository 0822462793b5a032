"""The three workloads: what each sends to rowpress and how it is timed.

suite       `rowpress run` over the paper's figures and tables (fig23
            aside), one fresh process per pass, one shared cache dir.
realsystem  fig23 (the real-system demo) at its floor scale, one fresh
            `rowpress serve` process per pass, one shared cache dir.
serve_mix   one long-lived `rowpress serve --jobs 2` in a closed loop
            of 2 jobs drawn from a seeded shuffle bag of short kinds.

The seed orders serve_mix's job sequence and nothing else.  The
suite runs its experiments in one fixed order: with a seeded order,
whichever experiment first touched a die paid that store's snapshot
load, and the per-experiment median moved with the order (a spread of
0.24 over ten runs).  fig23 at its floor scale has one input.  Every
job's artifacts are digested and compared with the digests committed
in expected_digests.json, which therefore do not depend on the seed.
"""

import os
import random
import re
import shutil
import time

from . import digest, procs, stats
from .procs import BenchError

SUITE_EXPERIMENTS = [
    "fig01", "fig06", "fig08", "fig09", "fig10", "fig12", "fig13",
    "fig15", "fig17", "fig19", "fig22", "fig24", "fig25", "fig38",
    "fig40", "fig41", "fig42", "fig46", "table3", "table5"]
# Six locations put the median experiment near 150 ms (fig46, fig08);
# at two it sat among ~50 ms experiments whose times doubled from run
# to run, which gave job_p50_ms a spread of 0.2-0.46 over ten runs
# (0.14 at six).
SUITE_OPTIONS = ["--locations", "6", "--scale", "0.1"]
SUITE_THREADS = 2
SUITE_SETUPS = 3
SUITE_MIN_PASSES = 5          # 5 x 20 experiments: p90 has 10 beyond

REALSYSTEM_CONFIG = {"scale": "0.25"}   # fig23's floor: 36 demo cells
# Below nproc on purpose: on a shared 4-vCPU host, 4 threads gave a
# run-to-run cpu_s spread of 0.21-0.23, 3 threads 0.14 (10 runs each).
REALSYSTEM_THREADS = 3
REALSYSTEM_CELLS = 36
REALSYSTEM_SETUPS = 2
# The passes of one run differ by up to 15% among themselves.  Over ten
# runs on a 4-vCPU host, the median of 3 passes gave wall_s and cpu_s
# spreads of 0.19 and 0.17; the median of 4 gave 0.09 and 0.08.
REALSYSTEM_MIN_PASSES = 4

# Short job kinds and their fixed options; every job runs at threads 1.
SERVE_KINDS = {
    "fig01": {}, "fig06": {}, "fig09": {}, "fig12": {}, "fig15": {},
    "fig24": {}, "fig38": {}, "fig42": {}, "fig46": {},
    "fuzz.random": {"trials": "8", "population": "8", "budget": "4"},
    "fuzz.evolve": {"trials": "8", "population": "8", "budget": "4"},
    "perf.serve_unit": {},
}
SERVE_BASE = {"locations": "4", "threads": "1"}
SERVE_JOBS = 2                # serve --jobs and jobs kept in flight
SERVE_SETUPS = 3
SERVE_MIN_JOBS = 120          # p90 of 120 jobs has 12 beyond it
BAG = len(SERVE_KINDS)


def serve_mix_sequence(seed, bags):
    """Job kinds for `bags` shuffle bags: each bag holds every kind
    once, so any whole number of bags has the same mix."""
    rng = random.Random("serve_mix:%d" % seed)
    seq = []
    for _ in range(bags):
        bag = sorted(SERVE_KINDS)
        rng.shuffle(bag)
        seq.extend(bag)
    return seq


class Bench:
    """Everything one run shares: binaries, scratch space, budget,
    expected digests, and the attempted/failed tally.

    When recording, a digest with no expected value yet is taken as
    the expected one; later jobs of the same key are still checked
    against it, so a recording also proves the jobs agree."""

    def __init__(self, rowpress, work, deadline, seed, seconds, expected,
                 recording=False):
        self.rowpress = rowpress
        self.recording = recording
        self.work = work
        self.deadline = deadline
        self.seed = seed
        self.seconds = seconds
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._dirs = 0

    def fresh_dir(self, name):
        self._dirs += 1
        path = os.path.join(self.work, "%s-%d" % (name, self._dirs))
        os.makedirs(path)
        return path

    @staticmethod
    def threads(want):
        return max(1, min(want, os.cpu_count() or 1))

    def tally(self, jobs, bad, why=None):
        self.attempted += jobs
        self.failed += bad
        if bad and why:
            self.problems.append(why)

    def digest_ok(self, workload, key, root):
        want = self.expected.get(workload, {}).get(key)
        if want is None and self.recording:
            try:
                want = digest.tree_digest(root)
            except (OSError, ValueError):
                return False
            self.expected.setdefault(workload, {})[key] = want
        if want is None:
            self.problems.append("no expected digest for %s/%s"
                                 % (workload, key))
            return False
        if digest.check(root, want):
            return True
        self.problems.append("artifact digest mismatch: %s/%s"
                             % (workload, key))
        return False


class Pass:
    """Kernel and client figures of one pass."""

    def __init__(self, wall_s, cpu_s, rss_mb, job_ms):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.job_ms = job_ms


# ---- suite -------------------------------------------------------------

_ELAPSED = re.compile(rb"^elapsed: ([0-9.]+) ms$", re.M)


def suite_pass(b, cache, threads):
    order = SUITE_EXPERIMENTS
    out = b.fresh_dir("suite-out")
    argv = [b.rowpress, "run", *order, "--format", "table,json,csv",
            "--time", "--threads", str(threads), *SUITE_OPTIONS,
            "--cache-dir", cache, "--out", out]
    fin = procs.run_once(argv, out + ".stdout", b.deadline)
    with open(out + ".stdout", "rb") as f:
        job_ms = [float(m) for m in _ELAPSED.findall(f.read())]
    if fin.code != 0 or len(job_ms) != len(order):
        b.tally(len(order), len(order),
                "rowpress run exited %d after %d of %d experiments"
                % (fin.code, len(job_ms), len(order)))
        return Pass(fin.wall_s, fin.cpu_s, fin.rss_mb, [])
    bad = sum(not b.digest_ok("suite", exp, os.path.join(out, exp))
              for exp in order)
    b.tally(len(order), bad)
    shutil.rmtree(out)
    return Pass(fin.wall_s, fin.cpu_s, fin.rss_mb, job_ms)


def measure_suite(b):
    threads = b.threads(SUITE_THREADS)
    setups = []
    for _ in range(SUITE_SETUPS):
        cache = b.fresh_dir("suite-cache")
        setups.append(suite_pass(b, cache, threads))
    steady = []
    t0 = time.perf_counter()
    while (len(steady) < SUITE_MIN_PASSES
           or time.perf_counter() - t0 < b.seconds):
        steady.append(suite_pass(b, cache, threads))
    return pass_metrics(setups, steady, "experiment")


# ---- realsystem --------------------------------------------------------

def cell_latencies(t_submit, progress):
    """Time from submit to each demo cell's result, in ms.

    fig23 runs two engine task sets (Algorithm 1 and 2 grids); serve
    reports each set's progress as (done, total) events, throttled to
    about 16 per set, so one event can carry several cells.

    These are points on one pass's completion curve (the k-th value
    is the time until k cells had results), not independent draws:
    a pass contributes one independent sample to their percentiles."""
    out = []
    prev = total = 0
    for t, done, set_total in progress:
        if prev == total:                  # a new task set begins
            prev, total = 0, set_total
        out.extend([(t - t_submit) * 1e3] * (done - prev))
        prev = done
    return out


def realsystem_pass(b, cache, threads):
    out = b.fresh_dir("rs-out")
    s = procs.ServeSession(b.rowpress, ["--jobs", "1"], b.deadline)
    try:
        config = dict(REALSYSTEM_CONFIG, threads=str(threads))
        config["cache-dir"] = cache
        job, t_submit = submit(s, "fig23", config, out)
        if job is not None:
            s.wait_finished([job])
        fin = s.close()
    except BaseException:
        s.kill()
        raise
    cells = []
    ok = job is not None and s.finished[job][1]["state"] == "finished"
    if ok:
        cells = cell_latencies(t_submit, s.progress.get(job, []))
        ok = len(cells) == REALSYSTEM_CELLS
    ok = ok and fin.code == 0 and b.digest_ok(
        "realsystem", "fig23", os.path.join(out, "fig23"))
    b.tally(REALSYSTEM_CELLS, 0 if ok else REALSYSTEM_CELLS,
            "fig23 job failed or reported %d cells" % len(cells))
    shutil.rmtree(out)
    return Pass(fin.wall_s, fin.cpu_s, fin.rss_mb, cells if ok else [])


def measure_realsystem(b):
    threads = b.threads(REALSYSTEM_THREADS)
    setups = []
    for _ in range(REALSYSTEM_SETUPS):
        cache = b.fresh_dir("rs-cache")
        setups.append(realsystem_pass(b, cache, threads))
    steady = []
    t0 = time.perf_counter()
    while (len(steady) < REALSYSTEM_MIN_PASSES
           or time.perf_counter() - t0 < b.seconds):
        steady.append(realsystem_pass(b, cache, threads))
    return pass_metrics(setups, steady, "demo cell completion point",
                        independent_jobs=False)


def pass_metrics(setups, steady, job_unit, independent_jobs=True):
    """End-to-end metrics of a fresh-process-per-pass workload.

    When the jobs of a pass are not independent draws (realsystem's
    completion points), their sample counts say how many passes, and
    so how many independent samples, stand behind them."""
    jobs = [ms for p in steady for ms in p.job_ms]
    wall = sum(p.wall_s for p in steady)
    metrics = {
        "setup_s": stats.median([p.wall_s for p in setups]),
        "wall_s": stats.median([p.wall_s for p in steady]),
        "cpu_s": stats.median([p.cpu_s for p in steady]),
        "jobs_per_s": len(jobs) / wall,
        "job_p50_ms": stats.median(jobs),
        "job_p90_ms": stats.tail(jobs, 0.9),
        "peak_rss_mb": stats.median([p.rss_mb for p in steady]),
    }
    samples = {
        "setup_s": {"n": len(setups), "of": "cold pass",
                    "values": [p.wall_s for p in setups]},
        "wall_s": {"n": len(steady), "of": "steady pass",
                   "values": [p.wall_s for p in steady]},
        "cpu_s": {"n": len(steady), "of": "steady pass"},
        "peak_rss_mb": {"n": len(steady), "of": "steady pass"},
        "jobs_per_s": {"n": len(jobs), "of": job_unit},
        "job_p50_ms": {"n": len(jobs), "of": job_unit,
                       "beyond": stats.samples_beyond(len(jobs), 0.5)},
        "job_p90_ms": {"n": len(jobs), "of": job_unit,
                       "beyond": stats.samples_beyond(len(jobs), 0.9)},
    }
    if not independent_jobs:
        for name in ("jobs_per_s", "job_p50_ms", "job_p90_ms"):
            samples[name]["independent"] = len(steady)
    return metrics, samples


# ---- serve -------------------------------------------------------------

def submit(s, experiment, config, out, tracer=None, parent=None, req=0):
    """Submit one job; returns (job id or None if refused, t_submit)."""
    span = tracer.start("api.submit", parent["id"] if parent else 0,
                        req) if tracer else None
    t0, _t1, resp = s.request({"op": "submit", "experiment": experiment,
                               "config": config,
                               "formats": ["json", "csv"], "out": out})
    if tracer:
        tracer.end(span)
    return (resp["job"] if resp.get("ok") else None), t0


class JobLog:
    """Client-side record of the jobs of one closed loop."""

    def __init__(self):
        self.latency_ms = []   # submit -> finished event
        self.overhead_ms = []  # latency - job's own elapsed_ms
        self.done_t = []       # completion times, in order
        self.rejects = 0


def closed_loop(b, s, kinds, threads="1", log=None, tracer=None,
                parent=None, stop=None):
    """Run kinds through s keeping SERVE_JOBS in flight.

    stop(completed, elapsed_s) is asked each time a whole bag has
    completed; True ends submission (jobs in flight still finish).
    A finished job's successor is submitted before its artifacts are
    checked, so the check never idles the service.  Returns the
    JobLog."""
    log = log or JobLog()
    inflight = {}                 # job id -> (kind, out, t0, span)
    pending = iter(kinds)
    t_start = time.perf_counter()

    def launch():
        kind = next(pending, None)
        if kind is None:
            return False
        out = b.fresh_dir("sv-out")
        config = dict(SERVE_BASE, threads=threads, **SERVE_KINDS[kind])
        req = len(log.latency_ms) + len(inflight) + log.rejects + 1
        span = (tracer.start("api.job", parent["id"], req)
                if tracer else None)
        job, t0 = submit(s, kind, config, out, tracer, span, req)
        if job is None:
            log.rejects += 1
            b.tally(1, 1, "serve refused a %s job" % kind)
            if tracer:
                tracer.end(span)
            shutil.rmtree(out)
        else:
            inflight[job] = (kind, out, t0, span)
        return True

    while len(inflight) < SERVE_JOBS and launch():
        pass
    stopped = False
    while inflight:
        job = s.wait_finished(list(inflight))
        kind, out, t0, span = inflight.pop(job)
        t_done, ev = s.finished.pop(job)
        if tracer:
            tracer.end(span, tracer.at(t_done))
        lat = (t_done - t0) * 1e3
        log.latency_ms.append(lat)
        log.overhead_ms.append(lat - float(ev.get("elapsed_ms", 0.0)))
        log.done_t.append(t_done)
        done = len(log.latency_ms)
        if (stop and not stopped and done % BAG == 0
                and stop(done, time.perf_counter() - t_start)):
            stopped = True
        while not stopped and len(inflight) < SERVE_JOBS and launch():
            pass
        ok = ev["state"] == "finished" and b.digest_ok(
            "serve_mix", kind, os.path.join(out, kind))
        b.tally(1, 0 if ok else 1, "%s job ended %s" % (kind, ev["state"]))
        shutil.rmtree(out)
    return log


def serve_setup(b):
    """Spawn serve, wait for it to answer, warm one job of each kind.
    Returns (session, seconds from spawn to warmed)."""
    s = procs.ServeSession(b.rowpress, ["--jobs", str(SERVE_JOBS)],
                           b.deadline)
    try:
        _t0, _t1, resp = s.request({"op": "list", "glob": "fig01"})
        if not resp.get("ok"):
            raise BenchError("serve did not answer a list request")
        closed_loop(b, s, sorted(SERVE_KINDS))
    except BaseException:
        s.kill()
        raise
    return s, time.perf_counter() - s.t_spawn


def close_ok(b, s):
    fin = s.close()
    if fin.code != 0:
        b.tally(1, 1, "serve exited %d" % fin.code)
    return fin


def measure_serve_mix(b):
    setups = []
    for k in range(SERVE_SETUPS):
        s, dt = serve_setup(b)
        setups.append(dt)
        if k + 1 < SERVE_SETUPS:
            close_ok(b, s)
    try:
        pid = s.proc.pid
        marks = [(time.perf_counter(), procs.proc_cpu_s(pid),
                  procs.proc_hwm_mb(pid))]
        log = JobLog()

        def stop(completed, elapsed):
            marks.append((log.done_t[-1], procs.proc_cpu_s(pid),
                          procs.proc_hwm_mb(pid)))
            return completed >= SERVE_MIN_JOBS and elapsed >= b.seconds

        # Enough bags that the stop rule, not the sequence, ends it.
        seq = serve_mix_sequence(b.seed, 1000)
        t0 = time.perf_counter()
        closed_loop(b, s, seq, log=log, stop=stop)
        elapsed = log.done_t[-1] - t0
    finally:
        close_ok(b, s)
    bag_wall = [b1[0] - a[0] for a, b1 in zip(marks, marks[1:])]
    bag_cpu = [b1[1] - a[1] for a, b1 in zip(marks, marks[1:])]
    jobs = log.latency_ms
    metrics = {
        "setup_s": stats.median(setups),
        "wall_s": stats.median(bag_wall),
        "cpu_s": stats.median(bag_cpu),
        "jobs_per_s": len(jobs) / elapsed,
        "job_p50_ms": stats.median(jobs),
        "job_p90_ms": stats.tail(jobs, 0.9),
        "peak_rss_mb": stats.median([m[2] for m in marks[1:]]),
    }
    samples = {
        "setup_s": {"n": len(setups), "of": "spawn + warm-up",
                    "values": setups},
        "wall_s": {"n": len(bag_wall), "of": "bag of %d jobs" % BAG,
                   "values": bag_wall},
        "cpu_s": {"n": len(bag_cpu), "of": "bag of %d jobs" % BAG},
        "peak_rss_mb": {"n": len(marks) - 1, "of": "bag boundary"},
        "jobs_per_s": {"n": len(jobs), "of": "serve job"},
        "job_p50_ms": {"n": len(jobs), "of": "serve job",
                       "beyond": stats.samples_beyond(len(jobs), 0.5)},
        "job_p90_ms": {"n": len(jobs), "of": "serve job",
                       "beyond": stats.samples_beyond(len(jobs), 0.9)},
    }
    return metrics, samples


MEASURE = {
    "suite": measure_suite,
    "realsystem": measure_realsystem,
    "serve_mix": measure_serve_mix,
}
