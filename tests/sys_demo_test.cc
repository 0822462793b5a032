/**
 * @file
 * Real-system demonstration tests (paper section 6): the RowPress
 * access pattern must induce bitflips on the TRR-protected system
 * model while the conventional RowHammer pattern (one cache-block read
 * per activation) must not.
 */

#include <gtest/gtest.h>

#include "sys/demo.h"

namespace rp::sys {
namespace {

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
