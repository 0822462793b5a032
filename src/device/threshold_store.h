/**
 * @file
 * Shared, thread-safe store of per-row disturbance-threshold
 * candidates.
 *
 * Candidate enumeration is by far the most expensive part of building
 * a device model: for every row it draws three hash uniforms per bit
 * (~64Ki bits) to find the cells in the weak tails of the hammer /
 * press / retention threshold distributions.  The thresholds are a
 * pure function of (seed, die, bank, row, bit), so the result is
 * identical for every CellModel built from the same (die, seed) — yet
 * the engine-parallel search drivers used to rebuild the cache once
 * per task.
 *
 * A ThresholdStore owns that enumeration once per process: CellModel
 * instances constructed from the same (die, bits-per-row, seed) share
 * one store through a process-wide registry (strong references — the
 * store is a pure deterministic cache and outlives the short-lived
 * Modules of engine tasks), and rows are built lazily, under a mutex,
 * in a structure-of-arrays layout.  Two tiers exist per row:
 *
 *  - the candidate tier (RowCandidates): the weakest cells of the
 *    row, with row-minimum thresholds for the O(1) cannot-flip proof
 *    that gates ACmin-level evaluation;
 *  - the word tier (RowWordMasks): per-64-bit-word occupancy bitmasks
 *    over a geometric bucket ladder of thresholds, letting the
 *    full-scan (BER/ECC) path prove "no cell of these 64 words can
 *    flip at this damage bound" with one mask test, plus row-minimum
 *    lower bounds that tighten the press/retention damage split.
 *
 * Determinism: row contents depend only on the store key, never on
 * build order or thread count, so sharing cannot change results.
 */

#ifndef ROWPRESS_DEVICE_THRESHOLD_STORE_H
#define ROWPRESS_DEVICE_THRESHOLD_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/thread_annotations.h"
#include "device/die_config.h"

namespace rp::device {

/**
 * Canonical (bank, row) -> 64-bit key packing, shared by the
 * threshold store, the fault model's dose traces and snapshots, the
 * chip's flip overrides, and the demo controller's tracked rows, so
 * they can never diverge.
 */
constexpr std::uint64_t
packRowKey(int bank, int row)
{
    return (std::uint64_t(std::uint32_t(bank)) << 32) |
           std::uint32_t(row);
}

/** Per-die derived model parameters; exposed for tests and ablations. */
struct CellModelParams
{
    // Threshold distributions (log-space).
    double muH, sigmaH, sigmaRowH, sigmaWordH;
    double muP, sigmaP, sigmaRowP, sigmaWordP;
    double muRet, sigmaRet;

    // Temperature response (dose multiplier per degree C above 50C).
    double lambdaRp;
    double lambdaRh;

    // Structure.
    double kappaDs;      ///< Double-sided RowHammer synergy.
    double rhoWeakSide;  ///< RowPress coupling of the non-dominant side.
    double gammaRhAggr;  ///< Hammer coupling vs aggressor-cell charge.
    double gammaRpAggr0; ///< Press coupling vs aggressor charge, at 50C.
    double gammaRpAggrT; ///< Temperature slope of the above (per 30C).
    Time tauOff;         ///< Hammer recovery time constant (tAggOFF).
    double offFloor;     ///< Hammer weight floor at tAggOFF -> 0.
    /**
     * Press onset: the first ~tRAS of every open interval contributes
     * no press dose (the passing-gate stress needs the row held open
     * past the charge-restoration transient).  This is why the paper
     * sees only a 1.04-1.17x ACmin reduction at tAggON = 186 ns while
     * the t >= tREFI region follows the constant-cumulative-on-time
     * law (Obsv. 3).
     */
    Time pressOnset;
    double dist2Rh, dist2Rp; ///< Distance-2 coupling attenuation.
    double dist3Rh, dist3Rp; ///< Distance-3 coupling attenuation.
    double antiFraction;
};

/** Per-cell derived properties (pure in (seed, bank, row, bit)). */
struct CellProps
{
    double thetaH;
    double thetaP;
    double tauRet;
    bool anti;
    int domSide;
    double uH;
    double uP;
};

/** Derive one cell's properties from @p params under @p seed. */
CellProps computeCellProps(const CellModelParams &params,
                           std::uint64_t seed, int bank, int row,
                           int bit);

/**
 * Shared row/word variance components of one cell's thresholds.  The
 * full-scan fast path derives these once per row / per word instead
 * of once per cell (they dominate the per-cell cost: four Box-Muller
 * normals against two table hashes).
 */
struct RowWordZ
{
    double rowH;
    double rowP;
    double wordH;
    double wordP;
};

/** The row-level variance components of (seed, bank, row). */
struct RowZ
{
    double rowH;
    double rowP;
};

/**
 * These two helpers are the single source of the row/word draw
 * sequence (key derivation, tags, the word-stream offset): the mask
 * builder and the full-scan evaluator hoist computeRowZ out of their
 * word loops and call computeWordZ per word, and computeRowWordZ
 * composes them for the per-cell path — so the three users cannot
 * drift apart, which the fast path's bit-identity depends on.
 */
RowZ computeRowZ(std::uint64_t seed, int bank, int row);
RowWordZ computeWordZ(const RowZ &row_z, std::uint64_t seed, int bank,
                      int row, int word_index);

/** The full row/word variance context of (seed, bank, row, word). */
RowWordZ computeRowWordZ(std::uint64_t seed, int bank, int row,
                         int word_index);

/**
 * computeCellProps with the row/word context precomputed; @p cell
 * must be HashRng(hashU64(seed, bank, row, bit)).  Produces doubles
 * bit-identical to computeCellProps (same draws, same expressions).
 */
CellProps computeCellProps(const CellModelParams &params,
                           const HashRng &cell, const RowWordZ &z);

/**
 * Conservative uniform-quantile cutoff for a log-normal threshold
 * theta = exp(mu + sigma * probit(u) + shift): every cell whose
 * uniform draw u is >= the returned value provably has theta >
 * @p bound.  The cutoff carries a small cushion (covering the probit
 * approximation and expression rounding), so cells near the boundary
 * are kept — false positives only, never false negatives.  This is
 * what lets the full-scan fast path discard most cells of an eligible
 * word after three raw hash draws, before any probit/exp work.
 */
double weakQuantileCutoff(double bound, double mu, double sigma,
                          double shift);

/**
 * The weakest cells of one row, in bit order, as parallel arrays
 * (structure-of-arrays: the evaluation hot loop touches thetaH OR
 * thetaP/tauRet per cell, never all fields).
 */
struct RowCandidates
{
    std::vector<std::int32_t> bit;
    std::vector<double> thetaH;
    std::vector<double> thetaP;
    std::vector<double> tauRet;
    std::vector<std::uint8_t> anti;
    std::vector<std::uint8_t> domSide;

    /** Row-level lower bounds for O(1) cannot-flip early exits. */
    double minThetaH = 1e300;
    double minThetaP = 1e300;
    double minTauRet = 1e300;

    std::size_t size() const { return bit.size(); }
};

/**
 * Geometric bucket ladder over a log-normal threshold distribution:
 * edges at lo * 2^k, sized from (mu, sigma) so the selective query
 * range of the word-occupancy tier is covered.  Queries above the top
 * edge fall back to "every word eligible" (a plain full scan), which
 * is conservative and only happens at doses that flip large parts of
 * the row anyway.
 */
class BucketLadder
{
  public:
    BucketLadder() = default;
    BucketLadder(double mu, double sigma);

    /**
     * Smallest k with edge(k) >= @p bound (so an occupancy mask at
     * level k contains every word whose minimum threshold is <=
     * @p bound); size() when @p bound is above the top edge.
     */
    std::size_t indexFor(double bound) const;

    std::size_t size() const { return edges_.size(); }
    double edge(std::size_t k) const { return edges_[k]; }

  private:
    std::vector<double> edges_;
};

/**
 * Word-level occupancy tier of one row: for every 64-bit data word,
 * the bucket of its weakest hammer / press / retention cell, stored
 * as cumulative bitmasks so a full-scan evaluation can test 64 words'
 * "can any cell possibly flip at this damage bound?" with one 64-bit
 * load per mechanism.  Bit w of group g refers to data word 64g + w.
 */
struct RowWordMasks
{
    std::size_t numWords = 0;   ///< ceil(bits_per_row / 64).
    std::size_t numGroups = 0;  ///< ceil(numWords / 64).

    /** Bit set for every existing word (the "all eligible" fallback). */
    std::vector<std::uint64_t> valid;

    /**
     * Rigorous lower bounds on the row-wide minimum press/retention
     * thresholds (the tracked per-word minima, halved — the same
     * factor-2 margin as the bucket pad).  They cap how large any
     * cell's press / retention damage term can be, which tightens
     * the sum-split of the charged-branch test: a flip needs
     * press + retention >= 0.5, so with retention capped at B the
     * press term must reach 0.5 - B, not just the generic 0.25.
     * (The hammer branch is a single term, so it has no split
     * partner and needs no bound here.)
     */
    double minThetaPLow = 0.0;
    double minTauRetLow = 0.0;

    /**
     * Flattened [bucket][group] cumulative occupancy per mechanism:
     * bit w of hammer[k * numGroups + g] is set when word 64g + w
     * holds a cell with thetaH <= hammer-ladder edge k (and likewise
     * for press / retention).
     */
    std::vector<std::uint64_t> hammer;
    std::vector<std::uint64_t> press;
    std::vector<std::uint64_t> retention;

    /**
     * Occupancy of group @p g at ladder level @p k for one mechanism
     * array: empty below the ladder (@p k == npos, i.e. a zero dose),
     * everything above it (@p k == ladder size).
     */
    std::uint64_t
    level(const std::vector<std::uint64_t> &mech, std::size_t k,
          std::size_t ladder_size, std::size_t g) const
    {
        if (k == npos)
            return 0;
        if (k >= ladder_size)
            return valid[g];
        return mech[k * numGroups + g];
    }

    static constexpr std::size_t npos = std::size_t(-1);
};

/** Point-in-time usage/size accounting of one ThresholdStore. */
struct ThresholdStoreStats
{
    std::size_t candidateRows = 0; ///< Rows with a built candidate tier.
    std::size_t candidateCells = 0;///< Total cached candidate cells.
    std::size_t wordMaskRows = 0;  ///< Rows with a built word tier.
    std::size_t approxBytes = 0;   ///< Rough heap footprint of both tiers.
};

/**
 * Aggregate view of the process-wide keyed store registry — the warm
 * cache the api::Service reports on (`rowpress serve`'s cache verb).
 */
struct ThresholdStoreRegistryStats
{
    std::size_t stores = 0;     ///< Registered (die, bits, seed) configs.
    std::uint64_t hits = 0;     ///< acquire() calls served warm.
    std::uint64_t misses = 0;   ///< acquire() calls that built a store.
    std::uint64_t evictions = 0;///< Stores dropped by evictRegistry().
    ThresholdStoreStats totals; ///< Summed over registered stores.
};

/** Lazily built, mutex-protected candidate rows of one device model. */
class ThresholdStore
{
  public:
    /**
     * The shared store for (die, bits_per_row, seed): every CellModel
     * with the same key gets the same instance, so candidate
     * enumeration happens once per row per process.  @p params must be
     * the canonical parameters derived from @p die (callers pass what
     * CellModel::deriveParams computed).
     */
    static std::shared_ptr<const ThresholdStore>
    acquire(const DieConfig &die, const CellModelParams &params,
            int bits_per_row, std::uint64_t seed);

    /**
     * An unshared store generating from @p params as given — for
     * ablation studies that mutate parameters (the instance is not
     * registered, so mutations cannot leak into other models).
     */
    static std::shared_ptr<const ThresholdStore>
    makePrivate(const CellModelParams &params, int bits_per_row,
                std::uint64_t seed);

    /** Candidate list of a row; built on first use (thread-safe). */
    const RowCandidates &row(int bank, int row) const;

    /**
     * Word-occupancy tier of a row; built on first use (thread-safe),
     * like the candidate tier.  One build costs the same enumeration
     * as a single legacy full scan and is then shared by every full
     * scan of the row across all CellModels of this store.
     */
    const RowWordMasks &wordMasks(int bank, int row) const;

    const BucketLadder &hammerLadder() const { return hammerLadder_; }
    const BucketLadder &pressLadder() const { return pressLadder_; }
    const BucketLadder &retentionLadder() const
    {
        return retentionLadder_;
    }

    int bitsPerRow() const { return bitsPerRow_; }
    std::uint64_t seed() const { return seed_; }
    const CellModelParams &params() const { return params_; }

    /**
     * The registry content key this store was acquired under (die
     * targets + geometry + seed) — the identity a persisted snapshot
     * is keyed and validated by.  Empty for makePrivate() stores,
     * which are ablation-mutable and therefore never persisted.
     */
    const std::string &contentKey() const { return contentKey_; }

    /**
     * The candidate tier's uniform-quantile cap (the weakest-cells
     * filter of buildRow).  Exposed so the snapshot invariants hash
     * covers it: changing the cap changes which cells are cached, so
     * old snapshots must stop validating.
     */
    double candidateCapQuantile() const
    {
        return 96.0 / double(bitsPerRow_);
    }

    // --- persistence surface (src/persist) ---

    /**
     * Point-in-time export of the built candidate tier, sorted by row
     * key (deterministic regardless of build/thread order).  The
     * pointees live in this store: the caller must keep the store
     * alive while using them (values are immutable once inserted and
     * never erased).
     */
    std::vector<std::pair<std::uint64_t, const RowCandidates *>>
    exportRows() const;

    /** Same export for the word-occupancy tier. */
    std::vector<std::pair<std::uint64_t, const RowWordMasks *>>
    exportWordMasks() const;

    /**
     * Pre-populate one candidate row from a snapshot (insert-if-
     * absent; a concurrently built row wins and is bit-identical by
     * construction, so either outcome yields the same bytes).  Const
     * for the same reason lazy build is: adopting rows is a pure
     * cache warm-up that cannot change any result.  Returns false
     * when the row was already present.
     */
    bool adoptRow(std::uint64_t key, RowCandidates &&row) const;

    /** adoptRow for the word-occupancy tier. */
    bool adoptWordMasks(std::uint64_t key, RowWordMasks &&masks) const;

    /**
     * Strong references to every registered store (for snapshot
     * publication sweeps).  Ordering is deterministic (sorted by
     * content key).
     */
    static std::vector<std::shared_ptr<const ThresholdStore>>
    registrySnapshot();

    /**
     * Warm-start hook: when set, acquire() calls it (outside the
     * registry lock) for every newly created store so a persistence
     * layer can pre-populate tiers from disk.  Dependency inversion
     * keeps src/device below src/persist; persist::SnapshotCache
     * installs the hook when a cache directory is configured.  The
     * hook must not throw.
     */
    using WarmStartHook = void (*)(const ThresholdStore &);
    static void setWarmStartHook(WarmStartHook hook);

    /** Usage accounting of this store's built tiers (thread-safe). */
    ThresholdStoreStats stats() const;

    /**
     * Registry-wide accounting: store count, warm-hit/miss counters
     * of acquire(), and summed per-store tier sizes (thread-safe).
     */
    static ThresholdStoreRegistryStats registryStats();

    /**
     * Eviction hook: drop the registry's strong references, returning
     * how many stores were released.  Stores still referenced by live
     * CellModels survive until those die; the next acquire() of any
     * key rebuilds lazily.  Results are unaffected (stores are pure
     * caches) — this only trades warm-cache time for memory.
     */
    static std::size_t evictRegistry();

  private:
    ThresholdStore(const CellModelParams &params, int bits_per_row,
                   std::uint64_t seed);

    RowCandidates buildRow(int bank, int row) const;
    RowWordMasks buildWordMasks(int bank, int row) const;

    CellModelParams params_;
    int bitsPerRow_;
    std::uint64_t seed_;
    std::string contentKey_; ///< Set by acquire(); "" for private stores.

    BucketLadder hammerLadder_;
    BucketLadder pressLadder_;
    BucketLadder retentionLadder_;

    // Tier builds happen outside the lock (racing builders discard);
    // only the maps themselves are guarded.  Values are immutable
    // once inserted, so returned references need no lock.
    mutable core::Mutex mutex_;
    mutable std::unordered_map<std::uint64_t,
                               std::unique_ptr<RowCandidates>>
        rows_ RP_GUARDED_BY(mutex_);
    mutable std::unordered_map<std::uint64_t,
                               std::unique_ptr<RowWordMasks>>
        wordMasks_ RP_GUARDED_BY(mutex_);
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_THRESHOLD_STORE_H
