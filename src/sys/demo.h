/**
 * @file
 * Real-system demonstration of RowPress (paper section 6 and
 * Appendix G): user-level access patterns (Algorithms 1 and 2) driven
 * through a cache model and an adaptive-open-row memory controller
 * against a TRR-protected DDR4 chip model.
 */

#ifndef ROWPRESS_SYS_DEMO_H
#define ROWPRESS_SYS_DEMO_H

#include <cstdint>

#include "common/stats.h"
#include "device/chip.h"
#include "sys/memctrl.h"

namespace rp::sys {

/** The demo system's module: Samsung 8Gb C-die (section 6.1). */
inline constexpr const char *kDemoDieId = "S-8Gb-C";

/** Parameters of the demonstration program (Algorithm 1 / 2); the
 *  system it runs on is calibrated once in demo.cc. */
struct DemoConfig
{
    int numAggrActs = 4;      ///< NUM_AGGR_ACTS.
    int numReads = 16;        ///< NUM_READS (cache blocks per ACT).
    int numIters = 24000;     ///< NUM_ITER (scaled from the paper's 800K).
    int numVictims = 12;      ///< Victim rows tested (paper: 1500).

    /** Algorithm 2: flush each block right after reading it. */
    bool interleavedFlush = false;

    std::uint64_t seed = 1;
};

/** Outcome of one demo run (one cell of Fig. 23 / Fig. 49). */
struct DemoResult
{
    std::uint64_t totalBitflips = 0;
    int rowsWithBitflips = 0;
    double avgTAggOnNs = 0.0;     ///< Measured mean aggressor on-time.
    std::uint64_t aggressorActs = 0;
    std::uint64_t targetedRefreshes = 0;
};

/** Run the demonstration program over all victim rows. */
DemoResult runDemo(const DemoConfig &cfg);

/** Result of the row-open-time verification probe (Fig. 24). */
struct LatencyProbeResult
{
    Histogram first;        ///< First cache-block access (needs ACT).
    Histogram rest;         ///< Subsequent accesses (row already open).
    double medianFirstCycles = 0.0;
    double medianRestCycles = 0.0;
};

/**
 * Reproduce the section 6.3 verification: measure per-cache-block load
 * latency for the first vs the remaining blocks of a freshly-closed
 * DRAM row, in the time-stamp-counter cycles the paper reports.
 */
LatencyProbeResult rowOpenLatencyProbe(int trials = 100000);

} // namespace rp::sys

#endif // ROWPRESS_SYS_DEMO_H
