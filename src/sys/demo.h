/**
 * @file
 * Real-system demonstration of RowPress (paper section 6 and
 * Appendix G): user-level access patterns (Algorithms 1 and 2) driven
 * through a cache model and an adaptive-open-row memory controller
 * against a TRR-protected DDR4 chip model.
 *
 * Exact periodic fast-forward.  The demo's loop (the hammer_sync
 * loop: sync to a REF, read NUM_READS blocks per aggressor ACT, park
 * 64 dummy ACTs ahead of the next REF) settles within a few
 * iterations, and runDemo skips the rest with bit-identical results:
 *
 *  - The controller side (MemCtrl, the TRR model, the cache model,
 *    the banks' timing and the loop's clock) takes no input from the
 *    fault state: Chip::act / pre / refresh / refreshRow return bank
 *    timing only, and TRR sees row numbers, never doses.  So once the
 *    controller side starts an iteration in the state it started an
 *    earlier one in, shifted by delta, every later stretch of that
 *    many iterations issues the same chip commands shifted by delta,
 *    up to the end of the loop.  Time is integer picoseconds, so the
 *    shift is exact.  (TRR's counter table may cycle through a few
 *    states while its decisions stay fixed, so the repeat is looked
 *    for among the last kMaxPeriod iteration starts.)
 *  - runDemo then records one more stretch at row level (every dose
 *    addition, restore, close and REF) and hands whole repetitions of
 *    it to Chip::fastForward.  The dose increments of the recorded
 *    stretch recur in every repetition, since each depends only on
 *    the aggressor's last close, which lies in the repeating part.
 *    Within one victim run a row's flips and dose depend only on its
 *    own additions and restores, its neighbors' fill bytes (constant
 *    during the loop), the temperature and the restore time (the
 *    attempt-noise nonce), so each row is advanced on its own: dose
 *    additions replay in order (every sum bit-identical; no
 *    extrapolation), restores go through the real cannot-flip gate or
 *    flip evaluation at their true times, and every REF restores its
 *    refresh stripe at its exact time, including rows of earlier
 *    victims.
 *  - The controller side then jumps: times shift by the skipped
 *    length, counters (ACTs, PREs, REFs, targeted refreshes, tracked
 *    open time as an integer sum) grow by whole multiples of the
 *    stretch's growth, and the leftover iterations run normally.  If
 *    no repeat shows up, every iteration is simulated.
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

/** DIMM temperature of the loaded system under sustained attack. */
inline constexpr double kDemoTemperatureC = 65.0;

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

/**
 * runDemo on a caller-owned chip (kDemoDieId, default organization,
 * DDR4-2400, cfg.seed, at kDemoTemperatureC), whose rows the caller
 * can inspect afterwards.
 */
DemoResult runDemo(const DemoConfig &cfg, device::Chip &chip);

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
