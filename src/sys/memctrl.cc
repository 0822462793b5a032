#include "sys/memctrl.h"

#include <algorithm>

namespace rp::sys {

namespace {

/** Extra on-die queuing/arbitration cost per column access. */
constexpr Time kColumnOverhead = 4 * units::NS;

} // namespace

MemCtrl::MemCtrl(device::Chip &chip, mitigation::Mitigation *mitigation)
    : chip_(chip), mitigation_(mitigation)
{
    nextRef_ = chip_.timing().tREFI;
}

void
MemCtrl::trackRow(int bank, int row)
{
    const std::uint64_t key = device::packRowKey(bank, row);
    auto it = std::lower_bound(tracked_.begin(), tracked_.end(), key);
    if (it == tracked_.end() || *it != key)
        tracked_.insert(it, key);
}

void
MemCtrl::recordInterval(int bank, const dram::Bank::OpenInterval &iv)
{
    ++pres_;
    if (std::binary_search(tracked_.begin(), tracked_.end(),
                           device::packRowKey(bank, iv.row))) {
        trackedOpenTime_ += iv.onTime();
        ++trackedPres_;
    }
}

void
MemCtrl::closeOpenRows(Time t)
{
    for (int b = 0; b < chip_.org().totalBanks(); ++b) {
        auto &bank = chip_.bank(b);
        if (bank.isOpen()) {
            const Time pre_at =
                std::max(t, bank.earliest(dram::Command::PRE));
            auto interval = chip_.pre(b, pre_at);
            recordInterval(b, interval);
            now_ = std::max(now_, pre_at);
        }
    }
}

void
MemCtrl::doRefresh(Time t)
{
    closeOpenRows(t);
    Time ref_at = std::max(t, now_);
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        ref_at = std::max(ref_at,
                          chip_.bank(b).earliest(dram::Command::REF));
    chip_.refresh(ref_at);
    now_ = ref_at + chip_.timing().tRFC;
    ++refs_;

    if (mitigation_) {
        // Victim refreshes (in-DRAM TRR's) piggyback on the REF.
        for (int b = 0; b < chip_.org().totalBanks(); ++b) {
            victims_.clear();
            mitigation_->onRefresh(b, victims_);
            refreshVictims(b, now_);
        }
    }
}

void
MemCtrl::refreshVictims(int bank, Time t)
{
    for (int victim : victims_) {
        if (victim >= 0 && victim < chip_.org().rows)
            chip_.refreshRow(bank, victim, t);
    }
}

void
MemCtrl::advanceTo(Time t)
{
    while (nextRef_ <= t) {
        doRefresh(nextRef_);
        nextRef_ += chip_.timing().tREFI;
    }
    now_ = std::max(now_, t);
}

Time
MemCtrl::readBlock(int bank, int row, int column, Time arrive)
{
    advanceTo(arrive);
    Time t = std::max(now_, arrive);

    auto &bk = chip_.bank(bank);
    if (bk.isOpen() && bk.openRow() != row) {
        const Time pre_at = std::max(t, bk.earliest(dram::Command::PRE));
        auto interval = chip_.pre(bank, pre_at);
        recordInterval(bank, interval);
        t = pre_at;
    }
    if (!bk.isOpen()) {
        const Time act_at = std::max(t, bk.earliest(dram::Command::ACT));
        chip_.act(bank, row, act_at);
        ++acts_;
        if (mitigation_) {
            victims_.clear();
            mitigation_->onActivate(bank, row, victims_);
            refreshVictims(bank, act_at);
        }
        t = act_at;
    }
    const Time rd_at = std::max(t + kColumnOverhead,
                                bk.earliest(dram::Command::RD));
    const Time ready = chip_.read(bank, column, rd_at);
    now_ = std::max(now_, rd_at);
    return ready;
}

void
MemCtrl::snapshot(Snapshot &out) const
{
    out.now = now_;
    out.nextRef = nextRef_;
    out.banks.clear();
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        out.banks.push_back(chip_.bank(b));
    out.refs = refs_;
    out.acts = acts_;
    out.pres = pres_;
    out.trackedOpenTime = trackedOpenTime_;
    out.trackedPres = trackedPres_;
}

bool
MemCtrl::Snapshot::repeats(const Snapshot &earlier, Time delta) const
{
    if (now != earlier.now + delta || nextRef != earlier.nextRef + delta ||
        banks.size() != earlier.banks.size())
        return false;
    for (std::size_t b = 0; b < banks.size(); ++b) {
        if (!banks[b].repeats(earlier.banks[b], delta))
            return false;
    }
    return true;
}

void
MemCtrl::fastForward(const Snapshot &start, Time period, std::int64_t k)
{
    const Time shift = k * period;
    now_ += shift;
    nextRef_ += shift;
    for (int b = 0; b < chip_.org().totalBanks(); ++b)
        chip_.bank(b).shift(shift);
    const auto n = std::uint64_t(k);
    refs_ += n * (refs_ - start.refs);
    acts_ += n * (acts_ - start.acts);
    pres_ += n * (pres_ - start.pres);
    trackedOpenTime_ += k * (trackedOpenTime_ - start.trackedOpenTime);
    trackedPres_ += n * (trackedPres_ - start.trackedPres);
}

} // namespace rp::sys
