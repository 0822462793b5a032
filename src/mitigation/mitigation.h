/**
 * @file
 * Read-disturbance mitigation interface of every controller model:
 * sim::Controller (paper section 7), sys::MemCtrl (section 6) and the
 * fuzz evaluator.  A mitigation observes every activation and REF and
 * may request *preventive refreshes* of potential victim rows; the
 * controller models their cost.
 */

#ifndef ROWPRESS_MITIGATION_MITIGATION_H
#define ROWPRESS_MITIGATION_MITIGATION_H

#include <cstdint>
#include <vector>

namespace rp::mitigation {

/** Base class for read-disturbance mitigation mechanisms. */
class Mitigation
{
  public:
    virtual ~Mitigation() = default;

    /**
     * Observe an activation of @p row in @p flat_bank; append any
     * victim rows that must be preventively refreshed to @p victims.
     */
    virtual void onActivate(int flat_bank, int row,
                            std::vector<int> &victims) = 0;

    /** A REF reached @p flat_bank: same contract as onActivate. */
    virtual void
    onRefresh(int /*flat_bank*/, std::vector<int> & /*victims*/) {}

    /** Called at every refresh-window (tREFW) boundary. */
    virtual void onRefreshWindow() {}

    /** Victim-row refreshes requested so far. */
    std::uint64_t preventiveRefreshes() const { return preventive_; }

  protected:
    std::uint64_t preventive_ = 0;
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_MITIGATION_H
