/**
 * @file
 * rp_probe — the benchmark's traced driver of the rowpress library.
 *
 * Calls each layer's public functions with the configurations the
 * benchmark workloads use and records one span (name, start, end,
 * parent, request id) around every call.  Spans stay in memory and
 * are printed once, at exit, as one JSON object together with the
 * counts read from the layers' public stats:
 *
 *   {"spans": [...], "counts": {...}}
 *
 * Nothing here is timed inside the library: every span sits in this
 * file, around a call into it.
 *
 * Usage:
 *   rp_probe --threads N --cache-dir DIR
 *   rp_probe --calibrate N      (ALU spin calibration block only)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "chr/acmin.h"
#include "chr/experiments.h"
#include "chr/overlap.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/thread_annotations.h"
#include "device/cell_model.h"
#include "device/chip.h"
#include "device/die_config.h"
#include "device/threshold_store.h"
#include "fuzz/evaluator.h"
#include "fuzz/search.h"
#include "mitigation/defaults.h"
#include "persist/cache.h"
#include "sim/system.h"
#include "sys/demo.h"
#include "workloads/presets.h"

using namespace rp;
using namespace rp::literals;

namespace {

using Clock = std::chrono::steady_clock;

/** In-memory span log; written once, when the probe exits. */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::int64_t id = 0;
        std::int64_t parent = 0;
        std::int64_t req = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** One open span; recorded when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::int64_t parent = 0,
              std::int64_t req = 0)
            : tracer_(tracer)
        {
            rec_.name = std::move(name);
            rec_.id = ++tracer_.nextId_;
            rec_.parent = parent;
            rec_.req = req;
            rec_.startNs = tracer_.now();
        }
        ~Scope()
        {
            rec_.endNs = tracer_.now();
            core::LockGuard lock(tracer_.mutex_);
            tracer_.records_.push_back(std::move(rec_));
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::int64_t id() const { return rec_.id; }

      private:
        Tracer &tracer_;
        Record rec_;
    };

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** JSON array of every recorded span, in completion order. */
    std::string
    json()
    {
        core::LockGuard lock(mutex_);
        std::string out = "[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s\n  {\"name\": \"%s\", \"id\": %lld, "
                          "\"parent\": %lld, \"req\": %lld, "
                          "\"start_ns\": %lld, \"end_ns\": %lld}",
                          i ? "," : "", r.name.c_str(), (long long)r.id,
                          (long long)r.parent, (long long)r.req,
                          (long long)r.startNs, (long long)r.endNs);
            out += buf;
        }
        return out + "]";
    }

  private:
    const Clock::time_point origin_ = Clock::now();
    std::atomic<std::int64_t> nextId_{0};
    core::Mutex mutex_;
    std::vector<Record> records_ RP_GUARDED_BY(mutex_);
};

/** Counts read from the layers' public stats, printed in order. */
class Counts
{
  public:
    void
    add(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        items_.emplace_back(key, buf);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i)
            out += (i ? ", \"" : "\"") + items_[i].first +
                   "\": " + items_[i].second;
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> items_;
};

/** Tested locations per module: the suite's `--locations 6`. */
constexpr int kLocations = 6;

/** Bits per row of the modules chr::Module builds (default org). */
int
moduleBitsPerRow()
{
    const dram::Organization org;
    return org.columns * org.blockBytes * 8;
}

/** The dies `rowpress run` selects when --dies is left at default. */
std::vector<device::DieConfig>
suiteDies()
{
    return {device::dieS8GbB(), device::dieH16GbA(), device::dieM16GbF()};
}

chr::ModuleConfig
moduleConfig(const device::DieConfig &die, double temp_c)
{
    chr::ModuleConfig mc;
    mc.die = die;
    mc.numLocations = kLocations;
    mc.temperatureC = temp_c;
    mc.seed = 1;
    return mc;
}

/**
 * device: cold candidate and word-mask tier builds for the suite's
 * (die, seed) keys, over the rows around each tested location, then
 * Chip construction for the real-system demo's die.
 */
void
probeDevice(Tracer &tr, Counts &counts)
{
    const int bits = moduleBitsPerRow();
    {
        Tracer::Scope build(tr, "device.tier_build");
        for (const auto &die : suiteDies()) {
            const auto mc = moduleConfig(die, 50.0);
            const device::CellModel model(die, bits, mc.seed);
            const auto store = device::ThresholdStore::acquire(
                die, model.params(), bits, mc.seed);
            for (int base : chr::baseRowsOf(mc)) {
                for (int row = base - 2; row <= base + 2; ++row) {
                    (void)store->row(mc.bank, row);
                    (void)store->wordMasks(mc.bank, row);
                }
            }
        }
    }
    const auto reg = device::ThresholdStore::registryStats();
    counts.add("device.rows_built", double(reg.totals.candidateRows));
    counts.add("device.word_mask_rows", double(reg.totals.wordMaskRows));
    counts.add("device.store_bytes", double(reg.totals.approxBytes));

    // The demo builds one Chip per cell; after the first, the die's
    // store is warm in the registry, as it is inside fig23.
    for (int i = 0; i < 8; ++i) {
        Tracer::Scope chip(tr, "device.chip_build");
        const dram::Organization org;
        const device::Chip c(device::dieById("S-8Gb-C"), org,
                             dram::ddr4_2400(), 3);
        (void)c;
    }
}

/**
 * persist: publish every registered store to the (initially empty)
 * cache directory, drop the registry, and re-acquire the suite's
 * stores so the warm-start hook loads them back from disk.
 */
void
probePersist(Tracer &tr, Counts &counts)
{
    auto &cache = persist::SnapshotCache::instance();
    {
        Tracer::Scope publish(tr, "persist.publish");
        cache.publishRegistry();
    }
    device::ThresholdStore::evictRegistry();
    {
        const int bits = moduleBitsPerRow();
        Tracer::Scope load(tr, "persist.load");
        for (const auto &die : suiteDies()) {
            const device::CellModel model(die, bits, 1);
            (void)model;
        }
    }
    const auto st = cache.stats();
    counts.add("persist.hits", double(st.hits));
    counts.add("persist.misses", double(st.misses));
    counts.add("persist.publishes", double(st.publishes));
    counts.add("persist.bytes_loaded", double(st.bytesLoaded));
    counts.add("persist.bytes_published", double(st.bytesPublished));
}

/** chr: the public drivers with the figures' configurations. */
void
probeChr(Tracer &tr, Counts &counts, core::ExperimentEngine &engine)
{
    const auto mc = moduleConfig(device::dieS8GbB(), 50.0);
    std::size_t points = 0;
    {
        Tracer::Scope s(tr, "chr.acmin_sweep");
        points += chr::acminSweep(mc, engine, chr::standardTAggOnSweep(),
                                  chr::AccessKind::SingleSided)
                      .size();
    }
    {
        Tracer::Scope s(tr, "chr.taggonmin");
        for (std::uint64_t acts : {1, 8, 64, 512, 4096}) {
            (void)chr::tAggOnMinPoint(mc, engine, acts,
                                      chr::AccessKind::SingleSided);
            ++points;
        }
    }
    {
        Tracer::Scope s(tr, "chr.overlap");
        points += chr::overlapAtAcmin(mc, engine,
                                      {36_ns, 7800_ns, 70200_ns, 300_us},
                                      chr::AccessKind::SingleSided,
                                      chr::SearchConfig{})
                      .size();
    }
    std::size_t flips = 0;
    {
        // The fig25 shape: max-activation attempts at 80C with full-
        // scan victim inspection.
        const auto mc80 = moduleConfig(device::dieS8GbB(), 80.0);
        const auto rows = chr::baseRowsOf(mc80);
        Tracer::Scope s(tr, "chr.fullscan");
        for (Time t : {7800_ns, 70200_ns}) {
            for (auto kind : {chr::AccessKind::SingleSided,
                              chr::AccessKind::DoubleSided}) {
                for (const auto &attempt : chr::maxActivationAttempts(
                         mc80, engine, rows, kind,
                         chr::DataPattern::CheckerBoard, t))
                    flips += attempt.flips.size();
            }
        }
    }
    counts.add("chr.points", double(points));
    counts.add("chr.fullscan_flips", double(flips));
}

/**
 * core: the same chr driver on a one-thread engine, for the map
 * speedup (one-thread time over the workload-thread time).
 */
void
probeCore(Tracer &tr)
{
    const auto mc = moduleConfig(device::dieS8GbB(), 50.0);
    core::ExperimentEngine::Options opts;
    opts.numThreads = 1;
    core::ExperimentEngine serial(opts);
    Tracer::Scope s(tr, "core.acmin_sweep_1t");
    (void)chr::acminSweep(mc, serial, chr::standardTAggOnSweep(),
                          chr::AccessKind::SingleSided);
}

/**
 * sim: runSystems over the fig38 configurations (open vs minimally-
 * open row) plus fig41-shaped four-core mixes under Graphene and
 * PARA, on one thread so host time per simulated cycle is exact.
 */
void
probeSim(Tracer &tr, Counts &counts)
{
    std::vector<sim::SystemJob> jobs;
    for (const char *name :
         {"429.mcf", "433.milc", "436.cactusADM", "462.libquantum",
          "470.lbm", "482.sphinx3", "483.xalancbmk", "510.parest",
          "h264_encode", "wc_8443", "ycsb_bserver", "tpch17"}) {
        sim::SystemJob open;
        open.cfg.core.instrLimit = 50000;
        open.cfg.workloads = {workloads::workloadByName(name)};
        jobs.push_back(open);
        sim::SystemJob min_open = open;
        min_open.cfg.mem.tMro = min_open.cfg.mem.timing.tRAS;
        jobs.push_back(min_open);
    }
    for (const char *name : {"429.mcf", "462.libquantum", "h264_encode"}) {
        for (bool use_para : {false, true}) {
            sim::SystemJob mix;
            mix.cfg.core.instrLimit = 25000;
            mix.cfg.workloads = std::vector<workloads::WorkloadParams>(
                4, workloads::workloadByName(name));
            mix.mitigationFactory =
                mitigation::standardMitigationFactory(use_para, 1000);
            jobs.push_back(std::move(mix));
        }
    }

    core::ExperimentEngine::Options opts;
    opts.numThreads = 1;
    core::ExperimentEngine serial(opts);
    std::vector<sim::SystemResult> results;
    {
        Tracer::Scope s(tr, "sim.run");
        results = sim::runSystems(jobs, serial);
    }
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    for (const auto &r : results) {
        for (const auto &c : r.cores) {
            cycles += c.cycles;
            instrs += c.instrs;
        }
    }
    counts.add("sim.systems", double(results.size()));
    counts.add("sim.cycles", double(cycles));
    counts.add("sim.instrs", double(instrs));
}

/** sys: the 36 demo cells of fig23 at its floor scale, one span each. */
void
probeSys(Tracer &tr, Counts &counts, core::ExperimentEngine &engine)
{
    const std::vector<int> reads = {1, 4, 16, 32, 48, 64};
    const std::vector<int> acts = {2, 3, 4};
    const std::size_t cells = 2 * acts.size() * reads.size();
    Tracer::Scope demo(tr, "sys.demo");
    const std::int64_t parent = demo.id();
    const auto results = engine.map<sys::DemoResult>(
        cells, [&](const core::TaskContext &tc) {
            const std::size_t grid = acts.size() * reads.size();
            const std::size_t i = tc.index % grid;
            sys::DemoConfig cfg;
            cfg.numAggrActs = acts[i / reads.size()];
            cfg.numReads = reads[i % reads.size()];
            cfg.interleavedFlush = tc.index >= grid;
            cfg.numVictims = 4;
            cfg.numIters = 4000;
            cfg.seed = 3;
            Tracer::Scope cell(tr, "sys.demo_cell", parent,
                               std::int64_t(tc.index) + 1);
            return sys::runDemo(cfg);
        });
    std::uint64_t aggr = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t flips = 0;
    for (const auto &r : results) {
        aggr += r.aggressorActs;
        refreshes += r.targetedRefreshes;
        flips += r.totalBitflips;
    }
    counts.add("sys.cells", double(cells));
    counts.add("sys.acts", double(aggr));
    counts.add("sys.targeted_refreshes", double(refreshes));
    counts.add("sys.bitflips", double(flips));
}

/** fuzz: one Graphene evaluation per random genome, one span each. */
void
probeFuzz(Tracer &tr, Counts &counts, core::ExperimentEngine &engine)
{
    fuzz::EvalConfig ec;
    ec.module = moduleConfig(device::dieS8GbB(), 50.0);
    ec.budget = 2 * units::MS;
    const fuzz::Evaluator evaluator(ec, fuzz::MitigationKind::Graphene);
    const int n = 24;
    std::vector<fuzz::PatternSpec> genomes;
    for (int i = 0; i < n; ++i) {
        Rng rng(hashU64(1, std::uint64_t(i)));
        genomes.push_back(fuzz::randomPattern(rng, ec.module.bank,
                                              ec.module.firstRow));
    }
    Tracer::Scope batch(tr, "fuzz.batch");
    const std::int64_t parent = batch.id();
    const auto scores = engine.map<fuzz::Score>(
        std::size_t(n), [&](const core::TaskContext &tc) {
            Tracer::Scope s(tr, "fuzz.eval", parent,
                            std::int64_t(tc.index) + 1);
            return evaluator.evaluate(genomes[tc.index]);
        });
    counts.add("fuzz.genomes", double(scores.size()));
}

/**
 * What tracing costs where it happens: ns to open and close one span
 * on a Tracer like the probe's (median of 5 rounds of 100000 spans,
 * with a name past the small-string buffer, as most span names are).
 */
double
spanCostNs()
{
    const int n = 100000;
    std::vector<double> rounds;
    for (int r = 0; r < 5; ++r) {
        Tracer scratch;
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            Tracer::Scope s(scratch, "trace.span_cost_probe", 1, i);
        rounds.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            n);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[2];
}

/** A fixed integer workload: xorshift-multiply rounds. */
std::uint64_t
spin(std::uint64_t rounds, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x *= 0x9E3779B97F4A7C15ull;
    }
    return x;
}

/** Wall ms of @p threads concurrent spins; folds results into @p check. */
double
spinMs(std::uint64_t rounds, int threads, std::uint64_t &check)
{
    std::vector<std::thread> pool;
    std::vector<std::uint64_t> sink(std::size_t(threads), 0);
    const auto t0 = Clock::now();
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&sink, t, rounds] {
            sink[std::size_t(t)] = spin(rounds, std::uint64_t(t) + 1);
        });
    for (auto &th : pool)
        th.join();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    for (std::uint64_t v : sink)
        check ^= v;
    return ms;
}

/**
 * Calibration block: median single-thread spin time and the speedup
 * of @p threads concurrent spins (the host's thread ceiling).
 */
int
calibrate(int threads)
{
    const std::uint64_t rounds = 40000000;
    std::vector<double> single;
    std::vector<double> multi;
    std::uint64_t check = 0; // printed, so the spins cannot be elided
    for (int i = 0; i < 3; ++i) {
        single.push_back(spinMs(rounds, 1, check));
        multi.push_back(spinMs(rounds, threads, check));
    }
    std::sort(single.begin(), single.end());
    std::sort(multi.begin(), multi.end());
    std::printf("{\"spin_ms\": %.4f, \"threads\": %d, "
                "\"thread_speedup\": %.4f, \"spin_check\": %llu}\n",
                single[1], threads, threads * single[1] / multi[1],
                (unsigned long long)check);
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: rp_probe --threads N --cache-dir DIR\n"
                 "       rp_probe --calibrate N\n");
    std::exit(2);
}

int
intArg(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (!end || *end != '\0' || v < 1 || v > 4096)
        usage();
    return int(v);
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    std::string cache_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        if (a == "--calibrate")
            return calibrate(intArg(argv[++i]));
        if (a == "--threads")
            threads = intArg(argv[++i]);
        else if (a == "--cache-dir")
            cache_dir = argv[++i];
        else
            usage();
    }
    if (threads == 0 || cache_dir.empty())
        usage();

    try {
        persist::SnapshotCache::instance().configure(cache_dir);
        core::ExperimentEngine::Options opts;
        opts.numThreads = threads;
        core::ExperimentEngine engine(opts);

        Tracer tr;
        Counts counts;
        counts.add("threads", double(threads));
        probeDevice(tr, counts);
        probePersist(tr, counts);
        probeChr(tr, counts, engine);
        probeCore(tr);
        probeSim(tr, counts);
        probeSys(tr, counts, engine);
        probeFuzz(tr, counts, engine);

        const auto reg = device::ThresholdStore::registryStats();
        counts.add("device.registry_hits", double(reg.hits));
        counts.add("device.registry_misses", double(reg.misses));
        counts.add("trace.span_ns", spanCostNs());

        std::printf("{\"counts\": %s,\n \"spans\": %s}\n",
                    counts.json().c_str(), tr.json().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rp_probe: %s\n", e.what());
        return 1;
    }
    return 0;
}
