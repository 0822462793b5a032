/**
 * @file
 * In-DRAM Target Row Refresh (TRR) model.
 *
 * Real DDR4 TRR implementations sample recently activated rows and
 * refresh their neighbors during regular REF commands (Frigo et al.,
 * "TRRespass"; Hassan et al., "U-TRR").  We model the two mechanisms
 * observed on commodity parts:
 *
 *  - a *recency sampler*: the rows activated immediately before a REF
 *    are treated as aggressor candidates and their neighbors are
 *    refreshed.  This is why the paper's demonstration synchronizes
 *    its access pattern with refresh and parks 16 dummy-row
 *    activations right before each REF (section 6.2) - and why the
 *    attack collapses once the aggressor phase grows past the tREFI
 *    slot and a REF lands in the middle of it (Obsv. 21);
 *  - a small Misra-Gries counter table that catches rows hammered at a
 *    sustained high rate even if they dodge the recency sampler.
 *
 * Both are kept per bank; victims are only ever requested at a REF.
 */

#ifndef ROWPRESS_MITIGATION_TRR_H
#define ROWPRESS_MITIGATION_TRR_H

#include <cstdint>
#include <vector>

#include "mitigation/mitigation.h"

namespace rp::mitigation {

/** Sampler-based in-DRAM TRR, one sampler and table per bank. */
class Trr : public Mitigation
{
  public:
    struct Config
    {
        int recentRows = 2;       ///< Recency-sampled rows per REF.
        int tableEntries = 4;     ///< Counter-tracked candidates.
        int neighborhood = 2;     ///< Rows refreshed on each side.
        /** Counter value required before a victim refresh triggers. */
        std::uint32_t actThreshold = 48;
    };

    explicit Trr(int banks);
    Trr(int banks, Config cfg);

    /** Observe an activation; TRR never refreshes at an ACT. */
    void onActivate(int flat_bank, int row,
                    std::vector<int> &victims) override;

    /**
     * A REF reached @p flat_bank: append the neighbors of the
     * recency-sampled rows, plus those of a counter-table candidate
     * past the threshold, sorted and deduplicated.
     */
    void onRefresh(int flat_bank, std::vector<int> &victims) override;

    /** Number of per-bank REFs that refreshed at least one victim. */
    std::uint64_t targetedRefreshes() const { return targeted_; }

    /** Count @p n targeted refreshes a fast-forwarded stretch issued. */
    void creditTargetedRefreshes(std::uint64_t n) { targeted_ += n; }

    struct Entry
    {
        int row = -1;
        std::uint32_t count = 0;

        bool
        operator==(const Entry &o) const
        {
            return row == o.row && count == o.count;
        }
    };

    /** One bank's sampler and counter table. */
    struct Bank
    {
        std::vector<Entry> table;
        std::vector<int> recent; ///< Latest distinct rows, newest first.

        bool
        operator==(const Bank &o) const
        {
            return table == o.table && recent == o.recent;
        }
    };

    /**
     * Every bank's sampler and table: two equal states make the same
     * decisions from then on, given the same ACTs and REFs.
     */
    const std::vector<Bank> &state() const { return banks_; }

  private:

    void appendNeighbors(int row, std::vector<int> &out) const;

    Config cfg_;
    std::vector<Bank> banks_;
    std::uint64_t targeted_ = 0;
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_TRR_H
