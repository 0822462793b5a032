#include "device/chip.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.h"

namespace rp::device {

namespace {

const std::unordered_map<int, std::uint8_t> kNoOverrides;

} // namespace

Chip::Chip(const DieConfig &die, dram::Organization org,
           dram::TimingParams timing, std::uint64_t seed)
    : org_(org),
      timing_(timing),
      fault_(die, org, seed),
      data_(org.totalBanks(), org.rows)
{
    banks_.reserve(std::size_t(org_.totalBanks()));
    for (int b = 0; b < org_.totalBanks(); ++b)
        banks_.emplace_back(timing_);
    rowsPerRef_ = std::max(1, org_.rows / 8192);
}

void
Chip::bankOutOfRange(int b)
{
    panic("bank index %d out of range", b);
}

bool
Chip::restoreMayFlip(int b, int row, const DoseState &dose,
                     double retention_seconds) const
{
    if (dose.empty() && retention_seconds <= 0.0)
        return false;
    // One cannot-flip proof for the whole model: the same rigorous
    // bound the candidate-path evaluate gates on (damage below 0.5 is
    // below the noise threshold, so no draw can flip), backed by the
    // shared ThresholdStore's precomputed row minima.
    return fault_.cells().rowMayFlip(b, row, dose, retention_seconds,
                                     fault_.temperature());
}

void
Chip::restoreRow(int b, int row, Time now)
{
    if (restoreMayFlip(b, row, fault_.dose(b, row),
                       fault_.retentionSeconds(b, row, now)))
        materializeRow(b, row, now, false);
    else
        fault_.onRestore(b, row, now);
}

bool
Chip::refreshStripeRow(int b, int row, Time now)
{
    const RowData *rd = data_.find(b, row);
    if (!(rd && rd->present) && fault_.dose(b, row).empty())
        return false;
    restoreRow(b, row, now);
    return true;
}

void
Chip::act(int b, int row, Time now)
{
    bank(b).act(row, now);
    if (log_)
        log_->events.push_back(
            {PeriodLog::Kind::Restore, b, row, now, log_->ops.size()});
    // Opening the row restores its own cells (latching any flips the
    // accumulated dose already caused) and disturbs its neighbors.
    restoreRow(b, row, now);
    fault_.onActivate(b, row, now);
}

dram::Bank::OpenInterval
Chip::pre(int b, Time now)
{
    auto interval = bank(b).pre(now);
    if (log_)
        log_->events.push_back({PeriodLog::Kind::Close, b, interval.row,
                                interval.closeAt, log_->ops.size()});
    fault_.onPrecharge(b, interval.row, interval.openAt, interval.closeAt);
    return interval;
}

Time
Chip::read(int b, int column, Time now)
{
    (void)column;
    return bank(b).read(now);
}

Time
Chip::write(int b, int column, Time now)
{
    (void)column;
    return bank(b).write(now);
}

void
Chip::refresh(Time now)
{
    for (auto &bk : banks_)
        bk.ref(now);
    if (log_)
        log_->events.push_back(
            {PeriodLog::Kind::Ref, -1, -1, now, log_->ops.size()});

    const int lo = refreshPtr_;
    const int hi = refreshPtr_ + rowsPerRef_;
    refreshPtr_ = hi >= org_.rows ? 0 : hi;

    // Restore, in (bank, row) order, every row of the refreshed stripe
    // that holds data or carries dose; untouched rows have nothing to
    // restore.
    const int end = std::min(hi, org_.rows);
    for (int b = 0; b < int(banks_.size()); ++b) {
        for (int r = lo; r < end; ++r)
            refreshStripeRow(b, r, now);
    }
}

void
Chip::refreshRow(int b, int row, Time now)
{
    if (log_)
        log_->events.push_back(
            {PeriodLog::Kind::Restore, b, row, now, log_->ops.size()});
    restoreRow(b, row, now);
}

void
Chip::fillRow(int b, int row, std::uint8_t fill, Time now)
{
    RowData &rd = data_.at(b, row);
    rd.fill = fill;
    rd.present = true;
    if (rd.flipped) {
        flips_.erase(packRowKey(b, row));
        rd.flipped = false;
    }
    fault_.onRestore(b, row, now);
}

std::uint8_t
Chip::rowFill(int b, int row) const
{
    const RowData *rd = data_.find(b, row);
    return rd ? rd->fill : 0x00;
}

std::uint8_t
Chip::readByte(int b, int row, int byte_idx) const
{
    const RowData *rd = data_.find(b, row);
    if (!rd)
        return 0x00;
    const Overrides &ovr = overrides(rd, b, row);
    auto ov = ovr.find(byte_idx);
    return ov != ovr.end() ? ov->second : rd->fill;
}

const Chip::Overrides &
Chip::overrides(const RowData *rd, int b, int row) const
{
    return rd && rd->flipped ? flips_.at(packRowKey(b, row))
                             : kNoOverrides;
}

void
Chip::materializeRowInto(int b, int row, Time now, bool full_scan,
                         std::vector<FlipRecord> &out)
{
    RowData &rd = data_.at(b, row);
    rd.present = true;

    RowContext ctx;
    DoseState dose = fault_.dose(b, row);
    ctx.dose = &dose;
    ctx.victimFill = rd.fill;
    ctx.victimOverrides = &overrides(&rd, b, row);
    ctx.aggrFill[0] = row > 0 ? rowFill(b, row - 1) : 0x00;
    ctx.aggrFill[1] = row + 1 < org_.rows ? rowFill(b, row + 1) : 0x00;
    ctx.retentionSeconds = fault_.retentionSeconds(b, row, now);
    ctx.noiseSigma = fault_.evalNoiseSigma();
    ctx.noiseNonce = std::uint64_t(now);

    const std::size_t first = out.size();
    fault_.cells().evaluateInto(b, row, ctx, full_scan,
                                fault_.temperature(), out);

    if (out.size() > first) {
        Overrides &ovr = flips_[packRowKey(b, row)];
        rd.flipped = true;
        for (std::size_t i = first; i < out.size(); ++i) {
            const FlipRecord &f = out[i];
            const int byte_idx = f.bit >> 3;
            auto ov = ovr.find(byte_idx);
            std::uint8_t cur = ov != ovr.end() ? ov->second : rd.fill;
            cur = std::uint8_t(cur ^ (1u << (f.bit & 7)));
            ovr[byte_idx] = cur;
        }
    }

    fault_.onRestore(b, row, now);
}

void
Chip::peekRowInto(int b, int row, Time now, bool full_scan,
                  std::vector<FlipRecord> &out) const
{
    const RowData *rd = data_.find(b, row);

    RowContext ctx;
    DoseState dose = fault_.dose(b, row);
    ctx.dose = &dose;
    ctx.victimFill = rd ? rd->fill : 0x00;
    ctx.victimOverrides = &overrides(rd, b, row);
    ctx.aggrFill[0] = row > 0 ? rowFill(b, row - 1) : 0x00;
    ctx.aggrFill[1] = row + 1 < org_.rows ? rowFill(b, row + 1) : 0x00;
    ctx.retentionSeconds = fault_.retentionSeconds(b, row, now);
    ctx.noiseSigma = fault_.evalNoiseSigma();
    ctx.noiseNonce = std::uint64_t(now);

    fault_.cells().evaluateInto(b, row, ctx, full_scan,
                                fault_.temperature(), out);
}

bool
Chip::rowWouldFlip(int b, int row, Time now) const
{
    const DoseState &dose = fault_.dose(b, row);
    const double ret = fault_.retentionSeconds(b, row, now);
    if (dose.empty() && ret <= 0.0)
        return false;
    if (!fault_.cells().rowMayFlip(b, row, dose, ret,
                                   fault_.temperature()))
        return false;
    thread_local std::vector<FlipRecord> probe;
    probe.clear();
    peekRowInto(b, row, now, /*full_scan=*/false, probe);
    return !probe.empty();
}

std::vector<FlipRecord>
Chip::materializeRow(int b, int row, Time now, bool full_scan)
{
    std::vector<FlipRecord> flips;
    materializeRowInto(b, row, now, full_scan, flips);
    return flips;
}

std::vector<int>
Chip::storedFlipBits(int b, int row) const
{
    std::vector<int> bits;
    const RowData *rd = data_.find(b, row);
    for (const auto &[byte_idx, value] : overrides(rd, b, row)) {
        const std::uint8_t diff = value ^ rd->fill;
        for (int i = 0; i < 8; ++i) {
            if (diff & (1u << i))
                bits.push_back(byte_idx * 8 + i);
        }
    }
    std::sort(bits.begin(), bits.end());
    return bits;
}

void
Chip::reset()
{
    for (auto &bk : banks_)
        bk.reset();
    data_.reset();
    flips_.clear();
    fault_.reset();
    refreshPtr_ = 0;
}

void
Chip::setPeriodLog(PeriodLog *log)
{
    log_ = log;
    if (log_) {
        log_->ops.clear();
        log_->events.clear();
    }
    fault_.setDoseOpRecorder(log_ ? &log_->ops : nullptr);
}

namespace {

double &
component(DoseState &dose, int comp)
{
    return comp < 2 ? dose.hammer[comp] : dose.press[comp - 2];
}

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** One row's share of a recorded period, in issue order. */
struct RowStep
{
    int comp;       ///< Dose component added to; -1: a restore.
    int refsBefore; ///< REFs of the period issued before this step.
    double value;   ///< The addend.
    Time at;        ///< The restore time.
};

/**
 * Add @p adds[c] to dose component c, value by value, @p times
 * times: the additions of that many repetitions of a period in which
 * the row is not restored (each component's sum in issue order).
 */
void
addRepeated(DoseState &dose, const std::array<std::vector<double>, 4> &adds,
            std::int64_t times)
{
    double h0 = dose.hammer[0];
    double h1 = dose.hammer[1];
    double p0 = dose.press[0];
    double p1 = dose.press[1];
    for (std::int64_t t = 0; t < times; ++t) {
        for (double v : adds[0])
            h0 += v;
        for (double v : adds[1])
            h1 += v;
        for (double v : adds[2])
            p0 += v;
        for (double v : adds[3])
            p1 += v;
    }
    dose.hammer[0] = h0;
    dose.hammer[1] = h1;
    dose.press[0] = p0;
    dose.press[1] = p1;
}

/** Inputs of a restore that restoreMayFlip proved cannot flip. */
struct RestoreMemo
{
    bool valid = false;
    DoseState dose;
    double retention = 0.0;
};

} // namespace

void
Chip::fastForward(const PeriodLog &log, Time period, std::int64_t k)
{
    if (k <= 0)
        return;

    // REF g of the fast-forward (g = 0, 1, ...) is REF g % refs of
    // repetition g / refs + 1 and covers stripe slot (slot0 + g) %
    // slots, as Chip::refresh advances refreshPtr_.
    std::vector<Time> ref_at;
    for (const auto &e : log.events) {
        if (e.kind == PeriodLog::Kind::Ref)
            ref_at.push_back(e.at);
    }
    const std::int64_t refs = std::int64_t(ref_at.size());
    const std::int64_t total_refs = refs * k;
    const std::int64_t slots = (org_.rows + rowsPerRef_ - 1) / rowsPerRef_;
    const std::int64_t slot0 = refreshPtr_ / rowsPerRef_;
    auto first_cover = [&](int row) {
        return ((row / rowsPerRef_ - slot0) % slots + slots) % slots;
    };
    auto ref_time = [&](std::int64_t g) {
        return ref_at[std::size_t(g % refs)] + (g / refs + 1) * period;
    };

    // Split the period into per-row step lists (the stable sort keeps
    // issue order); remember each closed row's last close.
    struct Keyed
    {
        std::uint64_t key;
        RowStep step;
    };
    std::vector<Keyed> steps;
    steps.reserve(log.ops.size() + log.events.size());
    std::vector<std::pair<std::uint64_t, Time>> closes;
    std::size_t op = 0;
    int refs_seen = 0;
    auto take_ops = [&](std::size_t until) {
        for (; op < until; ++op) {
            const auto &o = log.ops[op];
            steps.push_back({o.key, {o.comp, refs_seen, o.value, 0}});
        }
    };
    for (const auto &e : log.events) {
        take_ops(e.ops);
        const std::uint64_t key = packRowKey(e.bank, e.row);
        switch (e.kind) {
          case PeriodLog::Kind::Restore:
            steps.push_back({key, {-1, refs_seen, 0.0, e.at}});
            break;
          case PeriodLog::Kind::Close:
            closes.emplace_back(key, e.at);
            break;
          case PeriodLog::Kind::Ref:
            ++refs_seen;
            break;
        }
    }
    take_ops(log.ops.size());
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Keyed &a, const Keyed &b) {
                         return a.key < b.key;
                     });

    std::vector<std::uint64_t> touched; // sorted
    std::vector<RowStep> row_steps;
    std::vector<RestoreMemo> memos;
    std::array<std::vector<double>, 4> adds;
    for (std::size_t lo = 0; lo < steps.size();) {
        const std::uint64_t key = steps[lo].key;
        const int b = int(key >> 32);
        const int row = int(std::uint32_t(key));
        touched.push_back(key);
        row_steps.clear();
        int restores = 0;
        for (; lo < steps.size() && steps[lo].key == key; ++lo) {
            RowStep st = steps[lo].step;
            if (st.comp < 0)
                st.comp = -1 - restores++; // -1 - memo index
            row_steps.push_back(st);
        }
        memos.assign(std::size_t(restores), RestoreMemo{});

        // The row's dose since its last restore lives in `cur`; the
        // fault model sees it (and marks the row dosed) only when a
        // flip evaluation or a REF needs it, or at the end.
        DoseState cur = fault_.dose(b, row);
        bool added = false;
        Time last_restore = 0;
        bool materialized = false;
        auto flush = [&] {
            if (added)
                fault_.accumulate(b, row) = cur;
            added = false;
        };
        auto apply = [&](const RowStep &st, Time shift) {
            if (st.comp >= 0) {
                component(cur, st.comp) += st.value;
                added = true;
                return;
            }
            const Time now = st.at + shift;
            const double ret = fault_.retentionSeconds(b, row, now);
            RestoreMemo &memo = memos[std::size_t(-1 - st.comp)];
            bool may_flip = false;
            if (!memo.valid || !sameBits(memo.dose, cur) ||
                !sameBits(memo.retention, ret)) {
                may_flip = restoreMayFlip(b, row, cur, ret);
                if (!may_flip)
                    memo = {true, cur, ret};
            }
            if (may_flip) {
                flush();
                materializeRow(b, row, now, false);
                materialized = true;
            } else {
                fault_.onRestore(b, row, now);
            }
            added = false;
            cur = DoseState{};
            last_restore = now;
        };

        // The row's state at the end of the last repetition, relative
        // to that repetition: once one repetition without a REF or a
        // flip evaluation ends as the one before it, every following
        // one does until a REF covers the row.
        bool have_end = false;
        DoseState end_dose;
        bool end_added = false;
        Time end_restore = 0;

        // Per component, the values a repetition adds (in order).
        for (auto &v : adds)
            v.clear();
        for (const RowStep &st : row_steps) {
            if (st.comp >= 0)
                adds[std::size_t(st.comp)].push_back(st.value);
        }

        std::int64_t cover = first_cover(row);
        for (std::int64_t j = 1; j <= k; ++j) {
            const Time shift = j * period;
            const std::int64_t next_striped =
                cover < total_refs ? cover / refs + 1 : k + 1;
            const bool striped = next_striped == j;
            if (restores == 0 && !striped) {
                // Only additions until the next REF covering the row.
                addRepeated(cur, adds, next_striped - j);
                added = true;
                j = next_striped - 1;
                continue;
            }
            materialized = false;
            std::size_t i = 0;
            for (; cover < total_refs && cover / refs + 1 == j;
                 cover += slots) {
                const int m = int(cover % refs);
                for (; i < row_steps.size() && row_steps[i].refsBefore <= m;
                     ++i)
                    apply(row_steps[i], shift);
                flush();
                if (refreshStripeRow(b, row, ref_time(cover)))
                    last_restore = ref_time(cover);
                cur = fault_.dose(b, row);
            }
            for (; i < row_steps.size(); ++i)
                apply(row_steps[i], shift);
            if (restores == 0)
                continue;

            const Time rel_restore = last_restore - shift;
            if (!striped && !materialized && have_end &&
                sameBits(end_dose, cur) && end_added == added &&
                end_restore == rel_restore) {
                const std::int64_t skip = next_striped - 1 - j;
                if (skip > 0) {
                    last_restore += skip * period;
                    fault_.onRestore(b, row, last_restore);
                    j += skip;
                }
            }
            have_end = true;
            end_dose = cur;
            end_added = added;
            end_restore = rel_restore;
        }
        flush();
    }

    // Rows the period does not touch change only at the REFs that
    // cover them: the data-holding or dosed rows of earlier work.
    std::vector<std::uint64_t> idle;
    data_.forEach([&](int b, int row, const RowData &rd) {
        if (rd.present)
            idle.push_back(packRowKey(b, row));
    });
    for (const auto &[key, dose] : fault_.snapshotDoses()) {
        if (!dose.empty())
            idle.push_back(key);
    }
    std::sort(idle.begin(), idle.end());
    idle.erase(std::unique(idle.begin(), idle.end()), idle.end());
    for (std::uint64_t key : idle) {
        if (std::binary_search(touched.begin(), touched.end(), key))
            continue;
        const int b = int(key >> 32);
        const int row = int(std::uint32_t(key));
        for (std::int64_t g = first_cover(row); g < total_refs; g += slots)
            refreshStripeRow(b, row, ref_time(g));
    }

    for (const auto &[key, at] : closes)
        fault_.closeRow(int(key >> 32), int(std::uint32_t(key)),
                        at + k * period);
    refreshPtr_ = int((slot0 + total_refs) % slots) * rowsPerRef_;
}

} // namespace rp::device
