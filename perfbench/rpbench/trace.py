"""The traced run: per-layer metrics from spans and public stats.

A traced run never reports end-to-end numbers.  It does three things:

1. Runs the workload's own unit of work at its thread count and again
   at another one (1 for suite and realsystem, 2 for serve_mix's
   single-thread jobs), and checks both against the same committed
   digests: the byte-identity invariant across thread counts.
2. Drives a short serve session (warm-up bag, two traced bags) for
   the api layer and the warm-store hit ratio.
3. Runs rp_probe, which calls each library layer with spans around
   every call, and folds its spans in under a `probe` span.

trace.overhead_pct is what recording the spans costs, as a share of
the traced time: the spans recorded, times the measured cost of one
span in the recorder that made it (rp_probe's, or this process's),
over the time of the traced sections.  A whole-pass traced-minus-
untraced difference would be run-to-run noise, larger than the cost.
"""

import json
import subprocess

from . import spans as spanlib
from . import stats, workloads as wl
from .procs import BenchError

PROBE_THREADS = {
    "suite": wl.SUITE_THREADS,
    "realsystem": wl.REALSYSTEM_THREADS,
    "serve_mix": wl.SERVE_JOBS,
}


def _thread_invariance(b, workload):
    """A cold pass at the workload's thread count, then one at 1
    thread; both are checked against the committed digests."""
    if workload == "suite":
        run, threads = wl.suite_pass, b.threads(wl.SUITE_THREADS)
    else:
        run, threads = wl.realsystem_pass, b.threads(wl.REALSYSTEM_THREADS)
    cache = b.fresh_dir(workload + "-cache")
    run(b, cache, threads)
    run(b, cache, 1)


def _api_session(b, tr):
    """Traced serve session for the api layer; returns its figures."""
    attempted = b.attempted
    s, _setup = wl.serve_setup(b)
    try:
        with tr.span("api.traced") as sp:
            traced = wl.closed_loop(b, s, wl.serve_mix_sequence(b.seed, 2),
                                    tracer=tr, parent=sp)
        wl.closed_loop(b, s, sorted(wl.SERVE_KINDS), threads="2")
        _t0, _t1, cache = s.request({"op": "cache"})
    finally:
        wl.close_ok(b, s)
    warm = cache.get("warm_cache", {})
    lookups = warm.get("hits", 0) + warm.get("misses", 0)
    return {
        "overhead_ms": stats.median(traced.overhead_ms),
        "rejects": traced.rejects,
        "attempts": b.attempted - attempted,
        "store_hit_ratio": warm.get("hits", 0) / lookups if lookups else 0,
    }


def _overhead_pct(tr, probe_spans, probe_span_ns):
    """Span recording cost over the traced time, in percent."""
    local = len(tr.spans) - probe_spans
    cost_ns = (local * spanlib.span_cost_ns()
               + probe_spans * probe_span_ns)
    traced_ns = sum(spanlib.duration_ns(s) for s in tr.spans
                    if not s["parent"])
    return 100.0 * cost_ns / traced_ns


def _run_probe(b, probe, threads, tr):
    cache = b.fresh_dir("probe-cache")
    argv = [probe, "--threads", str(threads), "--cache-dir", cache]
    with tr.span("probe") as sp:
        try:
            done = subprocess.run(argv, capture_output=True,
                                  timeout=max(b.deadline.left(), 1.0))
        except subprocess.TimeoutExpired as e:
            raise BenchError("rp_probe exceeded the run budget") from e
    if done.returncode != 0:
        raise BenchError("rp_probe failed: %s"
                         % done.stderr.decode(errors="replace")[-500:])
    out = json.loads(done.stdout)
    tr.merge(out["spans"], sp)
    return out["counts"], len(out["spans"])


# Probe counts that must repeat exactly: they are pure functions of
# the fixed probe inputs, whatever the thread count.
CHECKED_COUNTS = (
    "device.rows_built", "device.word_mask_rows", "persist.hits",
    "persist.publishes", "persist.bytes_loaded", "chr.points",
    "chr.fullscan_flips", "sim.cycles", "sim.instrs", "sys.acts",
    "sys.targeted_refreshes", "sys.bitflips", "fuzz.genomes")


def run_traced(b, workload, probe):
    """Per-layer metrics of one traced run, plus diagnostics."""
    tr = spanlib.Tracer()
    if workload != "serve_mix":
        _thread_invariance(b, workload)
    api = _api_session(b, tr)
    counts, probe_spans = _run_probe(
        b, probe, b.threads(PROBE_THREADS[workload]), tr)

    if b.recording:
        b.expected.setdefault("probe_counts", {
            key: counts.get(key) for key in CHECKED_COUNTS})
    want = b.expected.get("probe_counts", {})
    for key in CHECKED_COUNTS:
        b.tally(1, 0 if counts.get(key) == want.get(key) else 1,
                "probe count %s = %s, expected %s"
                % (key, counts.get(key), want.get(key)))

    sp = tr.spans

    def one(name):
        found = spanlib.durations_ms(sp, name)
        if len(found) != 1:
            raise BenchError("expected one %s span, found %d"
                             % (name, len(found)))
        return found[0]

    cells = spanlib.durations_ms(sp, "sys.demo_cell")
    sim_ms = one("sim.run")
    metrics = {
        "device.tier_build_ms": one("device.tier_build"),
        "device.chip_build_ms": stats.median(
            spanlib.durations_ms(sp, "device.chip_build")),
        "device.rows_built": counts["device.rows_built"],
        "device.word_mask_rows": counts["device.word_mask_rows"],
        "device.store_mb": counts["device.store_bytes"] / 2 ** 20,
        "device.store_hit_ratio": api["store_hit_ratio"],
        "persist.load_ms": one("persist.load"),
        "persist.publish_ms": one("persist.publish"),
        "persist.hits": counts["persist.hits"],
        "persist.publishes": counts["persist.publishes"],
        "persist.bytes_loaded": counts["persist.bytes_loaded"],
        "chr.acmin_sweep_ms": one("chr.acmin_sweep"),
        "chr.taggonmin_ms": one("chr.taggonmin"),
        "chr.overlap_ms": one("chr.overlap"),
        "chr.fullscan_ms": one("chr.fullscan"),
        "sim.run_ms": sim_ms,
        "sim.cycles": counts["sim.cycles"],
        "sim.ns_per_cycle": sim_ms * 1e6 / counts["sim.cycles"],
        "sys.demo_cell_p50_ms": stats.median(cells),
        "sys.demo_cell_max_ms": max(cells),
        "sys.acts": counts["sys.acts"],
        "sys.targeted_refreshes": counts["sys.targeted_refreshes"],
        "sys.ns_per_act": sum(cells) * 1e6 / counts["sys.acts"],
        "fuzz.eval_ms": stats.median(spanlib.durations_ms(sp, "fuzz.eval")),
        "api.submit_ms": stats.median(
            spanlib.durations_ms(sp, "api.submit")),
        "api.overhead_ms": api["overhead_ms"],
        "api.rejects": api["rejects"],
        "api.attempts": api["attempts"],
        "core.map_speedup": one("core.acmin_sweep_1t")
                            / one("chr.acmin_sweep"),
        "trace.overhead_pct": _overhead_pct(tr, probe_spans,
                                            counts["trace.span_ns"]),
    }
    diagnostics = {"self_ms": spanlib.self_ms_by_name(sp),
                   "spans": len(sp), "probe_counts": counts}
    return metrics, diagnostics
