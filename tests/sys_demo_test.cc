/**
 * @file
 * Real-system demonstration tests (paper section 6): the RowPress
 * access pattern must induce bitflips on the TRR-protected system
 * model while the conventional RowHammer pattern (one cache-block read
 * per activation) must not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "mitigation/trr.h"
#include "sys/cache.h"
#include "sys/demo.h"

namespace rp::sys {
namespace {

using namespace rp::literals;

DemoConfig
fastConfig()
{
    DemoConfig cfg;
    cfg.numVictims = 12;
    cfg.numIters = 24000;
    cfg.numAggrActs = 3;
    cfg.seed = 3;
    return cfg;
}

TEST(SysDemo, RowHammerPatternCannotFlip)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 1;   // conventional RowHammer baseline
    cfg.numAggrActs = 2; // paper Fig. 23: zero flips at 2 activations
    auto res = runDemo(cfg);
    EXPECT_EQ(res.totalBitflips, 0u);
}

TEST(SysDemo, RowPressPatternFlips)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 32;
    auto res = runDemo(cfg);
    EXPECT_GT(res.totalBitflips, 0u);
    EXPECT_GT(res.avgTAggOnNs, 400.0);
}

TEST(SysDemo, OverlongPatternDesynchronizesAndStopsFlipping)
{
    DemoConfig cfg = fastConfig();
    cfg.numReads = 64; // aggressor phase no longer fits a tREFI slot
    auto res = runDemo(cfg);
    EXPECT_EQ(res.totalBitflips, 0u);
}

TEST(SysDemo, MoreReadsKeepRowOpenLonger)
{
    DemoConfig a = fastConfig();
    a.numVictims = 2;
    a.numIters = 2000;
    a.numReads = 1;
    DemoConfig b = a;
    b.numReads = 32;
    auto ra = runDemo(a);
    auto rb = runDemo(b);
    EXPECT_GT(rb.avgTAggOnNs, 5.0 * ra.avgTAggOnNs);
}

// Exact results of one flipping cell of each algorithm (the fig23
// --scale 0.5 config at NUM_AGGR_ACTS = 4, NUM_READS = 16).  The
// benchmark's realsystem digest covers only non-flipping cells, so
// this pins the flip path: dose accumulation, TRR victim refreshes,
// materialization, and the measured tAggON, compared exactly.
TEST(SysDemo, GoldenResultAtFlippingConfig)
{
    DemoConfig cfg;
    cfg.numAggrActs = 4;
    cfg.numReads = 16;
    cfg.numVictims = 5;
    cfg.numIters = 8000;
    cfg.seed = 3;

    const DemoResult alg1 = runDemo(cfg);
    EXPECT_EQ(alg1.totalBitflips, 20u);
    EXPECT_EQ(alg1.rowsWithBitflips, 3);
    EXPECT_EQ(alg1.aggressorActs, 2880000u);
    EXPECT_EQ(alg1.targetedRefreshes, 39999u);
    EXPECT_EQ(alg1.avgTAggOnNs, 0x1.ea5428f5c28f6p+8); // 490.32875

    cfg.interleavedFlush = true; // Algorithm 2
    const DemoResult alg2 = runDemo(cfg);
    EXPECT_EQ(alg2.totalBitflips, 7u);
    EXPECT_EQ(alg2.rowsWithBitflips, 1);
    EXPECT_EQ(alg2.aggressorActs, 2880000u);
    EXPECT_EQ(alg2.targetedRefreshes, 79999u);
    EXPECT_EQ(alg2.avgTAggOnNs, 0x1.852a147ae147bp+9); // 778.32875
}

/** A demo chip as runDemo(cfg) builds it. */
std::unique_ptr<device::Chip>
demoChip(std::uint64_t seed)
{
    auto chip = std::make_unique<device::Chip>(
        device::dieById(kDemoDieId), dram::Organization{},
        dram::ddr4_2400(), seed);
    chip->setTemperature(kDemoTemperatureC);
    return chip;
}

/**
 * The demo loop simulated command by command, with no fast-forward:
 * Algorithm 1/2 as runDemo issues it, built from the public MemCtrl,
 * Trr, CacheModel and Chip API.
 */
DemoResult
plainDemo(const DemoConfig &cfg, device::Chip &chip)
{
    constexpr int kNumDummies = 16;
    constexpr int kDummyActsPerIter = 4;
    constexpr Time kReadSpacing = 24_ns;
    constexpr Time kFlushCost = 6_ns;
    constexpr Time kMfenceCost = 45_ns;
    constexpr Time kDummySpacing = 30_ns;
    auto line = [](int bank, int row, int column) {
        return (std::uint64_t(std::uint32_t(bank)) << 40) |
               (std::uint64_t(std::uint32_t(row)) << 8) |
               std::uint32_t(column);
    };

    mitigation::Trr trr(chip.org().totalBanks());
    MemCtrl mc(chip, &trr);
    CacheModel cache;
    DemoResult result;
    const int bank = 1;
    const Time spacing = cfg.interleavedFlush
                             ? kReadSpacing + 4 * kFlushCost
                             : kReadSpacing;

    for (int v = 0; v < cfg.numVictims; ++v) {
        const int victim = 2048 + v * 512;
        const int aggr[2] = {victim - 1, victim + 1};
        std::vector<int> dummies;
        for (int d = 0; d < kNumDummies; ++d)
            dummies.push_back(victim + 128 + d * 8);
        mc.trackRow(bank, aggr[0]);
        mc.trackRow(bank, aggr[1]);

        Time t = mc.now();
        chip.fillRow(bank, victim, 0x55, t);
        chip.fillRow(bank, aggr[0], 0xAA, t);
        chip.fillRow(bank, aggr[1], 0xAA, t);
        for (int d : dummies)
            chip.fillRow(bank, d, 0x00, t);

        for (int iter = 0; iter < cfg.numIters; ++iter) {
            mc.advanceTo(mc.nextRefreshAt());
            t = std::max(t, mc.now());
            for (int a = 0; a < cfg.numAggrActs; ++a) {
                for (int side = 0; side < 2; ++side) {
                    for (int j = 0; j < cfg.numReads; ++j) {
                        const std::uint64_t la = line(bank, aggr[side], j);
                        if (cache.load(la))
                            continue;
                        const Time ready =
                            mc.readBlock(bank, aggr[side], j, t);
                        t = std::max(t + spacing, ready - 40_ns);
                        if (cfg.interleavedFlush)
                            cache.clflush(la);
                    }
                }
                if (!cfg.interleavedFlush) {
                    for (int side = 0; side < 2; ++side) {
                        for (int j = 0; j < cfg.numReads; ++j)
                            cache.clflush(line(bank, aggr[side], j));
                    }
                    t += Time(2 * cfg.numReads) * kFlushCost;
                }
                t += kMfenceCost;
            }
            for (int rep = 0; rep < kDummyActsPerIter; ++rep) {
                for (int d : dummies) {
                    const std::uint64_t la = line(bank, d, 0);
                    cache.clflush(la);
                    const Time ready = mc.readBlock(bank, d, 0, t);
                    t = std::max(t + kDummySpacing, ready - 40_ns);
                    cache.load(la);
                }
            }
            mc.advanceTo(t);
            t = std::max(t, mc.now());
        }

        chip.materializeRow(bank, victim, mc.now());
        const auto flips = chip.storedFlipBits(bank, victim);
        result.totalBitflips += flips.size();
        if (!flips.empty())
            ++result.rowsWithBitflips;
        cache.clear();
    }

    result.aggressorActs = mc.activates();
    result.targetedRefreshes = trr.targetedRefreshes();
    if (mc.trackedPrecharges() > 0)
        result.avgTAggOnNs =
            toNs(mc.trackedOpenTime()) / double(mc.trackedPrecharges());
    return result;
}

std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** runDemo and plainDemo agree on every result field, exactly. */
void
expectSameResult(const DemoResult &fast, const DemoResult &plain)
{
    EXPECT_EQ(fast.totalBitflips, plain.totalBitflips);
    EXPECT_EQ(fast.rowsWithBitflips, plain.rowsWithBitflips);
    EXPECT_EQ(bits(fast.avgTAggOnNs), bits(plain.avgTAggOnNs))
        << fast.avgTAggOnNs << " vs " << plain.avgTAggOnNs;
    EXPECT_EQ(fast.aggressorActs, plain.aggressorActs);
    EXPECT_EQ(fast.targetedRefreshes, plain.targetedRefreshes);
}

/**
 * Both chips hold the same rows: doses (bitwise), latched flips and
 * restore clocks of every row the demo touches in bank 1 (victims,
 * aggressors, dummies and their neighborhoods).
 */
void
expectSameRows(const DemoConfig &cfg, const device::Chip &fast,
               const device::Chip &plain)
{
    const auto fast_doses = fast.fault().snapshotDoses();
    const auto plain_doses = plain.fault().snapshotDoses();
    ASSERT_EQ(fast_doses.size(), plain_doses.size());
    for (std::size_t i = 0; i < fast_doses.size(); ++i) {
        EXPECT_EQ(fast_doses[i].first, plain_doses[i].first);
        EXPECT_EQ(std::memcmp(&fast_doses[i].second, &plain_doses[i].second,
                              sizeof(device::DoseState)),
                  0)
            << "row key " << fast_doses[i].first;
    }
    const Time probe = 1000 * units::MS;
    const int last = 2048 + (cfg.numVictims - 1) * 512 + 128 + 15 * 8 + 8;
    for (int row = 2048 - 8; row <= last; ++row) {
        EXPECT_EQ(fast.storedFlipBits(1, row), plain.storedFlipBits(1, row))
            << "row " << row;
        EXPECT_EQ(bits(fast.fault().retentionSeconds(1, row, probe)),
                  bits(plain.fault().retentionSeconds(1, row, probe)))
            << "row " << row;
    }
}

// The fast-forward (demo.h) against plain simulation of every
// iteration: all 36 fig23 cells of both algorithms, at enough
// iterations that the refresh stripe sweeps the first victim's rows
// (REF ~256-290) during a skip, and one cell long enough to flip.
TEST(SysDemo, FastForwardMatchesFullSimulation)
{
    for (bool interleaved : {false, true}) {
        for (int acts : {2, 3, 4}) {
            for (int reads : {1, 4, 16, 32, 48, 64}) {
                SCOPED_TRACE(::testing::Message()
                             << "alg " << (interleaved ? 2 : 1) << " acts "
                             << acts << " reads " << reads);
                DemoConfig cfg;
                cfg.numAggrActs = acts;
                cfg.numReads = reads;
                cfg.interleavedFlush = interleaved;
                cfg.numVictims = 2;
                cfg.numIters = 400;
                cfg.seed = 3;
                auto fast_chip = demoChip(cfg.seed);
                auto plain_chip = demoChip(cfg.seed);
                expectSameResult(runDemo(cfg, *fast_chip),
                                 plainDemo(cfg, *plain_chip));
                expectSameRows(cfg, *fast_chip, *plain_chip);
            }
        }
    }

    // The golden cell of Algorithm 1 flips in its second victim.
    DemoConfig cfg;
    cfg.numAggrActs = 4;
    cfg.numReads = 16;
    cfg.numVictims = 2;
    cfg.numIters = 8000;
    cfg.seed = 3;
    auto fast_chip = demoChip(cfg.seed);
    auto plain_chip = demoChip(cfg.seed);
    const DemoResult fast = runDemo(cfg, *fast_chip);
    expectSameResult(fast, plainDemo(cfg, *plain_chip));
    EXPECT_GT(fast.totalBitflips, 0u);
    expectSameRows(cfg, *fast_chip, *plain_chip);
}

TEST(SysDemo, LatencyProbeShowsRowOpenGap)
{
    auto probe = rowOpenLatencyProbe(5000);
    // Paper Fig. 24: ~30-cycle median gap between first and
    // subsequent cache-block accesses.
    const double gap = probe.medianFirstCycles - probe.medianRestCycles;
    EXPECT_GT(gap, 15.0);
    EXPECT_LT(gap, 60.0);
}

} // namespace
} // namespace rp::sys
