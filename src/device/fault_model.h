/**
 * @file
 * Dose accounting for read disturbance.
 *
 * The FaultModel listens to row activity (ACT / PRE / restore events)
 * and maintains, for every disturbed victim row, the accumulated
 * hammer and press doses since that row's charge was last restored.
 * Doses are pre-scaled at accumulation time by:
 *  - temperature factors (RowPress: Arrhenius-like acceleration;
 *    RowHammer: the mild, die-specific response from Table 5);
 *  - the aggressor's preceding off-time (hammer recovery weight,
 *    paper section 5.4);
 *  - row-distance attenuation (victims up to +/-3 rows).
 *
 * Per-row state (dose, last close, last restore) lives in one record
 * of a paged RowTable, so an activation costs indexed loads and no
 * allocation once its rows' page exists.
 */

#ifndef ROWPRESS_DEVICE_FAULT_MODEL_H
#define ROWPRESS_DEVICE_FAULT_MODEL_H

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "device/cell_model.h"
#include "device/row_table.h"
#include "dram/address.h"

namespace rp::device {

/** Tracks disturbance doses for every victim row of one chip. */
class FaultModel
{
  public:
    FaultModel(const DieConfig &die, const dram::Organization &org,
               std::uint64_t seed);

    CellModel &cells() { return cells_; }
    const CellModel &cells() const { return cells_; }
    const dram::Organization &org() const { return org_; }

    void setTemperature(double temp_c) { temperatureC_ = temp_c; }
    double temperature() const { return temperatureC_; }

    /** Per-attempt measurement-noise level (0 = deterministic). */
    void setEvalNoiseSigma(double sigma) { evalNoiseSigma_ = sigma; }
    double evalNoiseSigma() const { return evalNoiseSigma_; }

    /** Aggressor row opened: deposit hammer dose on neighbors. */
    void onActivate(int bank, int row, Time now);

    /** Aggressor row closed: deposit press dose for the open interval. */
    void onPrecharge(int bank, int row, Time open_at, Time close_at);

    /**
     * The row's charge was restored (refresh, own activation, or
     * write): clear its accumulated dose and restart retention.
     */
    void onRestore(int bank, int row, Time now);

    /** Dose state of a row (a zero state if it was never disturbed). */
    const DoseState &dose(int bank, int row) const;

    /**
     * The row's dose, for adding to in place; marks the row dosed
     * since its last restore.  The reference stays valid until
     * reset().
     */
    DoseState &accumulate(int bank, int row);

    /** The row closed at @p at (tAggOFF clock) without depositing dose. */
    void closeRow(int bank, int row, Time at);

    /** Temperature-scaled unrefreshed seconds of a row at @p now. */
    double retentionSeconds(int bank, int row, Time now) const;

    /** Clear all dose state (platform reset). */
    void reset();

    /** Row-table pages allocated (lookups of untouched rows add none). */
    std::size_t touchedPages() const { return rows_.touchedPages(); }

    // --- loop fast-forward support (bender::TestPlatform) ---

    /**
     * Doses of the rows dosed since their last restore, sorted by
     * doseKey.
     */
    using DoseSnapshot = std::vector<std::pair<std::uint64_t, DoseState>>;

    /**
     * One elementary dose accumulation: `dose(key).<comp> += value`.
     * comp 0/1 = hammer side 0/1, comp 2/3 = press side 0/1.  Recorded
     * traces let the chr::AttemptOracle replay an attempt's exact
     * floating-point accumulation sequence without re-executing the
     * program (bit-identical results).
     */
    struct DoseOp
    {
        std::uint64_t key;
        int comp;
        double value;
    };

    /** The key of (bank, row) in DoseOp / DoseSnapshot (packRowKey). */
    static std::uint64_t
    doseKey(int bank, int row)
    {
        return packRowKey(bank, row);
    }

    /**
     * Record every subsequent dose accumulation into @p rec (nullptr
     * stops recording).  Measurement-only: recording adds a branch to
     * the accumulation hot path but no allocation when disabled.
     */
    void setDoseOpRecorder(std::vector<DoseOp> *rec) { opRecorder_ = rec; }

    /** Snapshot of all current doses. */
    DoseSnapshot snapshotDoses() const;

    /**
     * Replay the dose growth between @p before and the current state
     * an additional @p factor times (steady-state loop extrapolation).
     * Only rows dosed since their last restore grow; a row restored
     * after the snapshot and not dosed since stays clear.
     */
    void scaleDoseDelta(const DoseSnapshot &before, double factor);

    /**
     * Advance a row's close/restore history by @p delta (applied to
     * rows the fast-forwarded loop body activates, so that subsequent
     * tAggOFF weights and retention clocks stay consistent).
     */
    void shiftRowHistory(int bank, int row, Time delta);

  private:
    /** "Never happened" for the close and restore clocks (0 is a
     *  valid time: a row filled at t = 0 was restored then). */
    static constexpr Time kNever = std::numeric_limits<Time>::min();

    struct RowState
    {
        DoseState dose;
        Time lastClose = kNever;   ///< For tAggOFF weighting.
        Time lastRestore = kNever; ///< For retention.
        /** Dose deposited since the last restore (even a zero one):
         *  the rows scaleDoseDelta extrapolates. */
        bool dosed = false;
    };

    dram::Organization org_;
    CellModel cells_;
    double temperatureC_ = 50.0;
    double evalNoiseSigma_ = 0.05;

    RowTable<RowState> rows_;

    std::vector<DoseOp> *opRecorder_ = nullptr;
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_FAULT_MODEL_H
