/**
 * @file
 * Adaptive-open-row memory controller of the real-system demo.
 *
 * Models the behaviour the paper verifies in section 6.3: the
 * controller keeps a DRAM row open while requests keep hitting it, so
 * a program that reads many cache blocks of the same row stretches the
 * aggressor's tAggON.  Auto-refresh fires every tREFI; an optional
 * mitigation (the demo's in-DRAM TRR) sees every ACT and every
 * per-bank REF.
 */

#ifndef ROWPRESS_SYS_MEMCTRL_H
#define ROWPRESS_SYS_MEMCTRL_H

#include <cstdint>
#include <vector>

#include "device/chip.h"
#include "mitigation/mitigation.h"

namespace rp::sys {

/** Single-channel memory controller over a device::Chip. */
class MemCtrl
{
  public:
    /** @p mitigation: optional, not owned (null: unprotected). */
    MemCtrl(device::Chip &chip, mitigation::Mitigation *mitigation);

    Time now() const { return now_; }
    Time nextRefreshAt() const { return nextRef_; }
    std::uint64_t refreshesIssued() const { return refs_; }
    std::uint64_t activates() const { return acts_; }
    std::uint64_t precharges() const { return pres_; }

    /** Track a row's open intervals (e.g., the demo's aggressors). */
    void trackRow(int bank, int row);
    Time trackedOpenTime() const { return trackedOpenTime_; }
    std::uint64_t trackedPrecharges() const { return trackedPres_; }

    /**
     * Serve a cache-block read arriving at @p arrive; returns the
     * data-ready time.  Opens the row if needed; an open row stays
     * open (adaptive open-row policy).
     */
    Time readBlock(int bank, int row, int column, Time arrive);

    /** Let wall-clock advance to @p t, performing due refreshes. */
    void advanceTo(Time t);

  private:
    void doRefresh(Time t);
    void closeOpenRows(Time t);
    /** Refresh the in-range rows of victims_ in @p bank at @p t. */
    void refreshVictims(int bank, Time t);

    device::Chip &chip_;
    mitigation::Mitigation *mitigation_;
    std::vector<int> victims_; ///< Reused hook output buffer.
    Time now_ = 0;
    Time nextRef_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t acts_ = 0;
    std::uint64_t pres_ = 0;
    /** Tracked rows as sorted packRowKey values (a few per demo). */
    std::vector<std::uint64_t> tracked_;
    Time trackedOpenTime_ = 0;
    std::uint64_t trackedPres_ = 0;

    void recordInterval(int bank, const dram::Bank::OpenInterval &iv);
};

} // namespace rp::sys

#endif // ROWPRESS_SYS_MEMCTRL_H
