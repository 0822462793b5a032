/**
 * @file
 * Real-system substrate tests: in-DRAM TRR (recency sampling,
 * counter table, dummy-row bypass, per-bank state), the
 * adaptive-open-row memory controller, and the cache model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "dram/timing.h"
#include "mitigation/trr.h"
#include "sys/cache.h"
#include "sys/memctrl.h"

namespace rp::sys {
namespace {

using namespace rp::literals;
using mitigation::Trr;

/** Activate @p row in @p bank; TRR never asks for victims at an ACT. */
void
activate(Trr &trr, int row, int bank = 0)
{
    std::vector<int> victims;
    trr.onActivate(bank, row, victims);
    EXPECT_TRUE(victims.empty());
}

/** The victims of one REF at @p bank. */
std::vector<int>
refresh(Trr &trr, int bank = 0)
{
    std::vector<int> victims;
    trr.onRefresh(bank, victims);
    return victims;
}

TEST(Cache, LoadHitMissAndFlush)
{
    CacheModel cache;
    EXPECT_FALSE(cache.load(0x1000));
    EXPECT_TRUE(cache.load(0x1000));
    cache.clflush(0x1000);
    EXPECT_FALSE(cache.load(0x1000));
    EXPECT_EQ(cache.residentLines(), 1u);
    cache.clear();
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(Cache, MissThenHit)
{
    CacheModel cache;
    EXPECT_FALSE(cache.load(42));
    EXPECT_TRUE(cache.load(42));
    EXPECT_TRUE(cache.load(42));
    EXPECT_EQ(cache.residentLines(), 1u);
    // Address 0 and the all-ones address are ordinary lines.
    EXPECT_FALSE(cache.load(0));
    EXPECT_FALSE(cache.load(~std::uint64_t(0)));
    EXPECT_TRUE(cache.load(0));
    EXPECT_TRUE(cache.load(~std::uint64_t(0)));
    EXPECT_EQ(cache.residentLines(), 3u);
}

TEST(Cache, FlushOfResidentAndAbsentLines)
{
    CacheModel cache;
    cache.load(7);
    cache.load(8);
    cache.clflush(7);
    EXPECT_EQ(cache.residentLines(), 1u);
    cache.clflush(7);    // already gone
    cache.clflush(1234); // never loaded
    cache.clflush(~std::uint64_t(0));
    EXPECT_EQ(cache.residentLines(), 1u);
    EXPECT_TRUE(cache.load(8));
    EXPECT_FALSE(cache.load(7));
}

TEST(Cache, ClearDropsEveryLine)
{
    CacheModel cache;
    for (std::uint64_t a = 0; a < 20; ++a)
        cache.load(a << 6);
    cache.clear();
    EXPECT_EQ(cache.residentLines(), 0u);
    for (std::uint64_t a = 0; a < 20; ++a)
        EXPECT_FALSE(cache.load(a << 6));
}

TEST(Cache, GrowsPastItsInitialCapacity)
{
    CacheModel cache;
    const std::uint64_t n = 10 << CacheModel::kInitialBits;
    for (std::uint64_t a = 0; a < n; ++a)
        EXPECT_FALSE(cache.load(a * 64));
    EXPECT_EQ(cache.residentLines(), n);
    for (std::uint64_t a = 0; a < n; ++a)
        EXPECT_TRUE(cache.load(a * 64));
}

/** @p count addresses whose home slot is @p slot in a new table. */
std::vector<std::uint64_t>
homedAt(std::size_t slot, int count, std::uint64_t from = 1)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t a = from; int(out.size()) < count; ++a) {
        if (CacheModel::homeSlot(a, CacheModel::kInitialBits) == slot)
            out.push_back(a);
    }
    return out;
}

TEST(Cache, FlushFromTheMiddleOfAProbeChainKeepsTheRestReachable)
{
    // One probe run of lines homed at three consecutive slots, loaded
    // round-robin so that some lines sit in their own home slot between
    // displaced ones; the second run wraps from the last slot to 0.
    const std::size_t last = (std::size_t(1) << CacheModel::kInitialBits) - 1;
    for (std::size_t base : {std::size_t(5), last - 1}) {
        const std::vector<std::uint64_t> homed[3] = {
            homedAt(base, 4), homedAt((base + 1) & last, 2),
            homedAt((base + 2) & last, 2)};
        std::vector<std::uint64_t> lines;
        for (std::size_t k = 0; k < 4; ++k) {
            for (const auto &h : homed) {
                if (k < h.size())
                    lines.push_back(h[k]);
            }
        }

        for (std::size_t victim = 0; victim < lines.size(); ++victim) {
            CacheModel cache;
            for (std::uint64_t a : lines)
                ASSERT_FALSE(cache.load(a));
            cache.clflush(lines[victim]);
            EXPECT_EQ(cache.residentLines(), lines.size() - 1);
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (i == victim)
                    continue;
                EXPECT_TRUE(cache.load(lines[i]))
                    << "base " << base << " flushed " << victim << " lost "
                    << i;
            }
            EXPECT_FALSE(cache.load(lines[victim]));
        }
    }
}

TEST(Cache, AgreesWithAReferenceSetUnderRandomLoadsAndFlushes)
{
    // A small address universe keeps collisions and deletions common.
    CacheModel cache;
    std::set<std::uint64_t> ref;
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (int op = 0; op < 20000; ++op) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t line = (x >> 8) % 96;
        if (x & 1) {
            EXPECT_EQ(cache.load(line), !ref.insert(line).second);
        } else {
            cache.clflush(line);
            ref.erase(line);
        }
        ASSERT_EQ(cache.residentLines(), ref.size());
    }
    for (std::uint64_t line = 0; line < 96; ++line)
        EXPECT_EQ(cache.load(line), ref.count(line) == 1);
}

TEST(Trr, RecencySamplerCatchesLastActivatedRows)
{
    Trr trr(1);
    activate(trr, 100);
    activate(trr, 200);
    auto victims = refresh(trr);
    // Neighbors of rows 200 and 100 at distance 1 and 2.
    for (int v : {98, 99, 101, 102, 198, 199, 201, 202})
        EXPECT_NE(std::find(victims.begin(), victims.end(), v),
                  victims.end())
            << v;
    EXPECT_EQ(trr.targetedRefreshes(), 1u);
}

TEST(Trr, DummyRowsShadowAggressorsFromRecency)
{
    Trr trr(1);
    activate(trr, 500); // aggressor
    activate(trr, 501); // aggressor
    for (int d = 0; d < 16; ++d)
        activate(trr, 1000 + d * 8); // dummy phase before REF
    auto victims = refresh(trr);
    for (int v : victims) {
        EXPECT_GT(v, 900); // only dummy neighbors refreshed
    }
}

TEST(Trr, CounterTableCatchesSustainedHammering)
{
    Trr::Config cfg;
    cfg.actThreshold = 16;
    Trr trr(1, cfg);
    bool caught = false;
    for (int ref = 0; ref < 20 && !caught; ++ref) {
        for (int i = 0; i < 8; ++i)
            activate(trr, 321);
        // A couple of other rows that do not crowd it out.
        activate(trr, 900);
        auto victims = refresh(trr);
        caught = std::find(victims.begin(), victims.end(), 322) !=
                 victims.end();
    }
    EXPECT_TRUE(caught);
}

TEST(Trr, RecencyResetsAfterRefresh)
{
    Trr trr(1);
    activate(trr, 100);
    refresh(trr);
    // No activations since the last REF: nothing recency-sampled and
    // no counter above threshold.
    auto victims = refresh(trr);
    EXPECT_TRUE(victims.empty());
}

TEST(Trr, RefreshTouchesOnlyItsOwnVictims)
{
    Trr trr(1);
    activate(trr, 100);
    activate(trr, 101);
    // Entries already in the buffer are neither sorted, deduplicated
    // nor counted: only the REF's own victims are.
    std::vector<int> victims = {500, 7, 500};
    trr.onRefresh(0, victims);
    const std::vector<int> want = {500, 7,  500, 98, 99,
                                   100, 101, 102, 103};
    EXPECT_EQ(victims, want);
    EXPECT_EQ(trr.targetedRefreshes(), 1u);
}

TEST(Trr, BankStateNeverLeaksIntoAnotherBanksRefresh)
{
    Trr::Config cfg;
    cfg.actThreshold = 8;
    Trr trr(4, cfg);
    // Hammer bank 2 past the counter threshold and leave its last
    // rows in the recency sampler.
    for (int i = 0; i < 64; ++i) {
        activate(trr, 700, /*bank=*/2);
        activate(trr, 702, /*bank=*/2);
    }
    for (int bank : {0, 1, 3})
        EXPECT_TRUE(refresh(trr, bank).empty()) << bank;
    EXPECT_EQ(trr.targetedRefreshes(), 0u);
    EXPECT_FALSE(refresh(trr, 2).empty());
    EXPECT_EQ(trr.targetedRefreshes(), 1u);

    // Another bank's activations do not feed bank 2's sampler.
    activate(trr, 300, /*bank=*/1);
    for (int v : refresh(trr, 2))
        EXPECT_GT(v, 690) << v;
}

device::Chip
makeChip()
{
    dram::Organization org;
    org.rows = 16384;
    return device::Chip(device::dieById("S-8Gb-C"), org,
                        dram::ddr4_2400(), 1);
}

TEST(MemCtrl, AdaptiveOpenRowServesHitsWithoutReactivation)
{
    auto chip = makeChip();
    MemCtrl mc(chip, nullptr);
    mc.readBlock(1, 100, 0, 1_us);
    const auto acts_after_first = mc.activates();
    for (int c = 1; c < 8; ++c)
        mc.readBlock(1, 100, c, mc.now() + 10_ns);
    EXPECT_EQ(mc.activates(), acts_after_first); // row stayed open
    mc.readBlock(1, 200, 0, mc.now() + 10_ns);   // conflict
    EXPECT_EQ(mc.activates(), acts_after_first + 1);
}

TEST(MemCtrl, RowConflictLatencyExceedsRowHit)
{
    auto chip = makeChip();
    MemCtrl mc(chip, nullptr);
    mc.readBlock(1, 100, 0, 1_us);
    const Time t0 = mc.now() + 1_us;
    const Time hit = mc.readBlock(1, 100, 1, t0) - t0;
    const Time t1 = mc.now() + 1_us;
    const Time miss = mc.readBlock(1, 300, 0, t1) - t1;
    EXPECT_GT(miss, hit + chip.timing().tRCD / 2);
}

TEST(MemCtrl, AutoRefreshFiresEveryTrefi)
{
    auto chip = makeChip();
    Trr trr(chip.org().totalBanks());
    MemCtrl mc(chip, &trr);
    mc.advanceTo(10 * chip.timing().tREFI + 1_us);
    EXPECT_EQ(mc.refreshesIssued(), 10u);
}

TEST(MemCtrl, RefreshClosesOpenRow)
{
    auto chip = makeChip();
    Trr trr(chip.org().totalBanks());
    MemCtrl mc(chip, &trr);
    mc.readBlock(1, 100, 0, 1_us);
    EXPECT_TRUE(chip.bank(1).isOpen());
    mc.advanceTo(chip.timing().tREFI + 1_us);
    EXPECT_FALSE(chip.bank(1).isOpen());
    EXPECT_GE(mc.precharges(), 1u);
}

TEST(MemCtrl, TrackedRowsAccumulateOpenTime)
{
    auto chip = makeChip();
    MemCtrl mc(chip, nullptr);
    mc.trackRow(1, 100);
    mc.readBlock(1, 100, 0, 1_us);
    for (int c = 1; c < 16; ++c)
        mc.readBlock(1, 100, c, mc.now() + 20_ns);
    mc.readBlock(1, 200, 0, mc.now() + 5_ns); // closes row 100
    EXPECT_EQ(mc.trackedPrecharges(), 1u);
    EXPECT_GT(mc.trackedOpenTime(), 15 * 20_ns);
    // Untracked rows do not contribute.
    mc.readBlock(1, 300, 0, mc.now() + 5_ns);
    EXPECT_EQ(mc.trackedPrecharges(), 1u);
}

TEST(MemCtrl, TrrRefreshesVictimsOfHammeredRow)
{
    auto chip = makeChip();
    Trr::Config cfg;
    cfg.actThreshold = 8;
    Trr trr(chip.org().totalBanks(), cfg);
    MemCtrl mc(chip, &trr);
    // Hammer a row continuously across several REF windows with no
    // dummy cover: TRR must target it.
    Time t = 1_us;
    for (int i = 0; i < 2000; ++i) {
        mc.readBlock(1, 4000, 0, t);
        mc.readBlock(1, 4100, 0, mc.now() + 5_ns); // conflict partner
        t = mc.now() + 5_ns;
    }
    EXPECT_GT(trr.targetedRefreshes(), 0u);
    // The victim's accumulated dose was cleared by TRR along the way.
    EXPECT_TRUE(chip.fault().dose(1, 4001).hammer[0] <
                double(mc.activates()));
}

} // namespace
} // namespace rp::sys
