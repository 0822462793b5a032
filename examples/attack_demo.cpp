/**
 * @file
 * Real-system RowPress attack demonstration (paper section 6 /
 * Algorithm 1): run the user-level access pattern against a
 * TRR-protected DDR4 system model and compare it with the
 * conventional RowHammer baseline.
 *
 * Usage: attack_demo [NUM_AGGR_ACTS] [NUM_READS] [victims] [iters]
 */

#include <cstdio>
#include <cstdlib>

#include "core/rowpress.h"

using namespace rp;

int
main(int argc, char **argv)
{
    sys::DemoConfig cfg;
    cfg.numAggrActs = argc > 1 ? std::atoi(argv[1]) : 3;
    cfg.numReads = argc > 2 ? std::atoi(argv[2]) : 32;
    cfg.numVictims = argc > 3 ? std::atoi(argv[3]) : 12;
    cfg.numIters = argc > 4 ? std::atoi(argv[4]) : 24000;
    cfg.seed = 3;

    std::printf("Target system: %s module with in-DRAM TRR, adaptive "
                "open-row controller\n",
                sys::kDemoDieId);
    std::printf("Victims: %d, iterations: %d (paper: 1500 / 800K)\n\n",
                cfg.numVictims, cfg.numIters);

    // Baseline: conventional RowHammer (one cache-block read per
    // activation).
    sys::DemoConfig rh = cfg;
    rh.numReads = 1;
    auto rh_res = sys::runDemo(rh);
    std::printf("RowHammer  (NUM_READS=1):  %llu bitflips in %d rows "
                "(tAggON ~ %.0f ns)\n",
                (unsigned long long)rh_res.totalBitflips,
                rh_res.rowsWithBitflips, rh_res.avgTAggOnNs);

    // RowPress: multiple cache-block reads keep the row open.
    auto rp_res = sys::runDemo(cfg);
    std::printf("RowPress   (NUM_READS=%d): %llu bitflips in %d rows "
                "(tAggON ~ %.0f ns)\n",
                cfg.numReads, (unsigned long long)rp_res.totalBitflips,
                rp_res.rowsWithBitflips, rp_res.avgTAggOnNs);

    // Algorithm 2 (Appendix G): interleave flushes with reads.
    sys::DemoConfig alg2 = cfg;
    alg2.interleavedFlush = true;
    auto a2_res = sys::runDemo(alg2);
    std::printf("Algorithm 2 (interleaved): %llu bitflips in %d rows "
                "(tAggON ~ %.0f ns)\n\n",
                (unsigned long long)a2_res.totalBitflips,
                a2_res.rowsWithBitflips, a2_res.avgTAggOnNs);

    if (rp_res.totalBitflips > rh_res.totalBitflips) {
        std::printf("RowPress induced bitflips where RowHammer "
                    "%s (paper Obsv. 19/20).\n",
                    rh_res.totalBitflips == 0 ? "could not"
                                              : "induced fewer");
    } else {
        std::printf("Tip: flips peak around NUM_READS = 16-32 and "
                    "vanish once the aggressor\nphase outgrows the "
                    "tREFI slot (try different NUM_READS).\n");
    }
    return 0;
}
