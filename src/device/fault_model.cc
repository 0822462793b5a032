#include "device/fault_model.h"

#include <algorithm>

namespace rp::device {

FaultModel::FaultModel(const DieConfig &die, const dram::Organization &org,
                       std::uint64_t seed)
    : org_(org),
      cells_(die, org.columns * org.blockBytes * 8, seed),
      rows_(org.totalBanks(), org.rows)
{
}

DoseState &
FaultModel::accumulate(int bank, int row)
{
    RowState &s = rows_.at(bank, row);
    s.dosed = true;
    return s.dose;
}

void
FaultModel::onActivate(int bank, int row, Time now)
{
    // Hammer weight depends on how long this aggressor rested since it
    // was last closed (charge recombination; paper section 5.4).
    Time t_off = -1;
    if (const RowState *s = rows_.find(bank, row);
        s && s->lastClose != kNever)
        t_off = now - s->lastClose;

    const double w = cells_.hammerOffWeight(t_off) *
                     cells_.hammerTempFactor(temperatureC_);
    const auto &p = cells_.params();
    const double atten[4] = {0.0, 1.0, p.dist2Rh, p.dist3Rh};

    for (int d = 1; d <= 3; ++d) {
        for (int sign : {-1, +1}) {
            const int victim = row + sign * d;
            if (victim < 0 || victim >= org_.rows)
                continue;
            // The aggressor sits below (side 0) or above (side 1) the
            // victim.
            const int side = sign > 0 ? 0 : 1;
            const double inc = w * atten[d];
            accumulate(bank, victim).hammer[side] += inc;
            if (opRecorder_)
                opRecorder_->push_back({doseKey(bank, victim), side, inc});
        }
    }
}

void
FaultModel::onPrecharge(int bank, int row, Time open_at, Time close_at)
{
    closeRow(bank, row, close_at);

    // The press-onset transient of each open interval contributes no
    // passing-gate stress (CellModelParams::pressOnset).
    const double on_time =
        double(close_at - open_at - cells_.params().pressOnset);
    if (on_time <= 0.0)
        return;
    const double scaled = on_time * cells_.pressTempFactor(temperatureC_);
    const auto &p = cells_.params();
    const double atten[4] = {0.0, 1.0, p.dist2Rp, p.dist3Rp};

    for (int d = 1; d <= 3; ++d) {
        for (int sign : {-1, +1}) {
            const int victim = row + sign * d;
            if (victim < 0 || victim >= org_.rows)
                continue;
            const int side = sign > 0 ? 0 : 1;
            const double inc = scaled * atten[d];
            accumulate(bank, victim).press[side] += inc;
            if (opRecorder_)
                opRecorder_->push_back(
                    {doseKey(bank, victim), 2 + side, inc});
        }
    }
}

void
FaultModel::closeRow(int bank, int row, Time at)
{
    rows_.at(bank, row).lastClose = at;
}

void
FaultModel::onRestore(int bank, int row, Time now)
{
    RowState &s = rows_.at(bank, row);
    s.dose = DoseState{};
    s.dosed = false;
    s.lastRestore = now;
}

const DoseState &
FaultModel::dose(int bank, int row) const
{
    static const DoseState zero;
    const RowState *s = rows_.find(bank, row);
    return s ? s->dose : zero;
}

double
FaultModel::retentionSeconds(int bank, int row, Time now) const
{
    Time since = now;
    if (const RowState *s = rows_.find(bank, row);
        s && s->lastRestore != kNever)
        since = now - s->lastRestore;
    if (since <= 0)
        return 0.0;
    return toSec(since) * cells_.retentionTempFactor(temperatureC_);
}

void
FaultModel::reset()
{
    rows_.reset();
}

FaultModel::DoseSnapshot
FaultModel::snapshotDoses() const
{
    DoseSnapshot snap;
    rows_.forEach([&snap](int bank, int row, const RowState &s) {
        if (s.dosed)
            snap.emplace_back(doseKey(bank, row), s.dose);
    });
    std::sort(snap.begin(), snap.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return snap;
}

void
FaultModel::scaleDoseDelta(const DoseSnapshot &before, double factor)
{
    if (factor <= 0.0)
        return;
    rows_.forEach([&](int bank, int row, RowState &s) {
        if (!s.dosed)
            return;
        const std::uint64_t k = doseKey(bank, row);
        DoseState prev;
        auto it = std::lower_bound(
            before.begin(), before.end(), k,
            [](const auto &e, std::uint64_t key) { return e.first < key; });
        if (it != before.end() && it->first == k)
            prev = it->second;
        DoseState &cur = s.dose;
        for (int i = 0; i < 2; ++i) {
            cur.hammer[i] += (cur.hammer[i] - prev.hammer[i]) * factor;
            cur.press[i] += (cur.press[i] - prev.press[i]) * factor;
        }
    });
}

void
FaultModel::shiftRowHistory(int bank, int row, Time delta)
{
    RowState *s = rows_.find(bank, row);
    if (!s)
        return;
    if (s->lastClose != kNever)
        s->lastClose += delta;
    if (s->lastRestore != kNever)
        s->lastRestore += delta;
}

} // namespace rp::device
