/**
 * @file
 * Device-model tests: die registry, calibration derivation, per-cell
 * determinism, eligibility/direction rules, dose accounting, and chip
 * materialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "device/chip.h"
#include "dram/timing.h"

namespace rp::device {
namespace {

using namespace rp::literals;

dram::Organization
smallOrg()
{
    dram::Organization org;
    org.rows = 4096;
    return org;
}

TEST(DieRegistry, HasAllTwelveRevisions)
{
    EXPECT_EQ(allDies().size(), 12u);
    int s = 0, h = 0, m = 0;
    for (const auto &d : allDies()) {
        if (d.mfr == "S")
            ++s;
        if (d.mfr == "H")
            ++h;
        if (d.mfr == "M")
            ++m;
    }
    EXPECT_EQ(s, 4);
    EXPECT_EQ(h, 4);
    EXPECT_EQ(m, 4);
}

TEST(DieRegistry, LookupByIdAndImmunity)
{
    EXPECT_EQ(dieById("S-8Gb-B").name, "Mfr. S 8Gb B-Die");
    EXPECT_TRUE(dieById("M-8Gb-B").rpImmuneAt50());
    EXPECT_TRUE(dieById("H-4Gb-A").rpImmuneAt50());
    EXPECT_FALSE(dieById("S-8Gb-B").rpImmuneAt50());
    EXPECT_DEATH(dieById("nope"), "unknown die");
}

class CalibrationTest : public ::testing::TestWithParam<DieConfig>
{
};

TEST_P(CalibrationTest, DerivedParametersAreSane)
{
    const auto &die = GetParam();
    CellModel cells(die, 65536, 1);
    const auto &p = cells.params();

    EXPECT_GE(p.sigmaH, 0.30);
    EXPECT_LE(p.sigmaH, 1.20);
    EXPECT_GE(p.sigmaP, 0.20);
    EXPECT_LE(p.sigmaP, 0.80);
    EXPECT_GT(p.muH, 0.0);
    EXPECT_GT(p.muP, 0.0);

    // The mu/sigma pair must reproduce the row-min calibration target:
    // quantile 2/bits of thetaH ~ Table 5 ACmin x DS gain.
    const double z1 = probit(2.0 / 65536.0);
    const double row_min_theta = std::exp(p.muH + p.sigmaH * z1);
    EXPECT_NEAR(std::log(row_min_theta / die.acminRh50), std::log(2.9),
                0.5);

    // And D_RP: quantile 4/bits of thetaP ~ mean cumulative dose.
    const double z1p = probit(4.0 / 65536.0);
    const double d50 = std::exp(p.muP + p.sigmaP * z1p);
    EXPECT_NEAR(d50 / double(units::MS), die.rpDose50Ms,
                0.01 * die.rpDose50Ms);
}

TEST_P(CalibrationTest, TemperatureFactorsMatchTargets)
{
    const auto &die = GetParam();
    CellModel cells(die, 65536, 1);
    // 80C press acceleration must equal the Table 5 dose ratio.
    EXPECT_NEAR(cells.pressTempFactor(80.0),
                die.rpDose50Ms / die.rpDose80Ms, 1e-6);
    EXPECT_NEAR(cells.pressTempFactor(50.0), 1.0, 1e-12);
    EXPECT_NEAR(cells.hammerTempFactor(80.0),
                die.acminRh50 / die.acminRh80, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllDies, CalibrationTest, ::testing::ValuesIn(allDies()),
    [](const ::testing::TestParamInfo<DieConfig> &info) {
        std::string name = info.param.id;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(CellModel, PerCellPropertiesAreDeterministic)
{
    CellModel a(dieS8GbB(), 65536, 7);
    CellModel b(dieS8GbB(), 65536, 7);
    CellModel c(dieS8GbB(), 65536, 8);
    EXPECT_EQ(a.thetaHammer(1, 100, 5), b.thetaHammer(1, 100, 5));
    EXPECT_EQ(a.thetaPress(1, 100, 5), b.thetaPress(1, 100, 5));
    EXPECT_NE(a.thetaHammer(1, 100, 5), c.thetaHammer(1, 100, 5));
    EXPECT_NE(a.thetaHammer(1, 100, 5), a.thetaHammer(1, 100, 6));
    EXPECT_NE(a.thetaHammer(1, 100, 5), a.thetaHammer(2, 100, 5));
}

TEST(CellModel, CandidatesContainTheRowWeakestCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    const auto &cands = cells.rowCandidates(1, 50);
    ASSERT_GT(cands.size(), 0u);
    double cand_min_h = 1e300, cand_min_p = 1e300;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        cand_min_h = std::min(cand_min_h, cands.thetaH[i]);
        cand_min_p = std::min(cand_min_p, cands.thetaP[i]);
    }
    // The precomputed row minima agree with the scan.
    EXPECT_DOUBLE_EQ(cands.minThetaH, cand_min_h);
    EXPECT_DOUBLE_EQ(cands.minThetaP, cand_min_p);
    // Exhaustive scan agrees on the row minima.
    double true_min_h = 1e300, true_min_p = 1e300;
    for (int bit = 0; bit < 65536; ++bit) {
        true_min_h = std::min(true_min_h, cells.thetaHammer(1, 50, bit));
        true_min_p = std::min(true_min_p, cells.thetaPress(1, 50, bit));
    }
    EXPECT_DOUBLE_EQ(cand_min_h, true_min_h);
    EXPECT_DOUBLE_EQ(cand_min_p, true_min_p);
}

TEST(CellModel, HammerOnlyFlipsDischargedCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose;
    dose.hammer[0] = dose.hammer[1] = 1e9; // absurd dose
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0xFF; // all bits 1 = all charged (true cells)
    auto flips = cells.evaluate(1, 10, ctx, /*full_scan=*/false, 50.0);
    EXPECT_TRUE(flips.empty());

    ctx.victimFill = 0x00; // all discharged
    flips = cells.evaluate(1, 10, ctx, false, 50.0);
    EXPECT_FALSE(flips.empty());
    for (const auto &f : flips) {
        EXPECT_EQ(f.mechanism, Mechanism::RowHammer);
        EXPECT_FALSE(f.oneToZero); // 0 -> 1
    }
}

TEST(CellModel, PressOnlyFlipsChargedCells)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose;
    dose.press[0] = dose.press[1] = 1e12 * 1e3; // huge on-time
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0x00; // all discharged: press cannot flip
    auto flips = cells.evaluate(1, 11, ctx, false, 50.0);
    EXPECT_TRUE(flips.empty());

    ctx.victimFill = 0xFF;
    flips = cells.evaluate(1, 11, ctx, false, 50.0);
    EXPECT_FALSE(flips.empty());
    for (const auto &f : flips) {
        EXPECT_EQ(f.mechanism, Mechanism::RowPress);
        EXPECT_TRUE(f.oneToZero); // 1 -> 0
    }
}

TEST(CellModel, AntiCellLayoutInvertsDirections)
{
    DieConfig die = dieById("M-16Gb-E"); // mostly anti-cells
    CellModel cells(die, 65536, 3);
    DoseState dose;
    dose.press[0] = dose.press[1] = 1e15;
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0x55;
    auto flips = cells.evaluate(1, 12, ctx, false, 50.0);
    ASSERT_FALSE(flips.empty());
    int zero_to_one = 0;
    for (const auto &f : flips)
        zero_to_one += f.oneToZero ? 0 : 1;
    // Anti-cells store logical 0 charged, so press flips mostly 0->1.
    EXPECT_GT(double(zero_to_one) / double(flips.size()), 0.6);
}

TEST(CellModel, RetentionFlipsAreAttributed)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    DoseState dose; // empty
    RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0xFF;
    ctx.retentionSeconds = 3600.0; // an hour unrefreshed at 80C
    auto flips = cells.evaluate(1, 13, ctx, false, 80.0);
    ASSERT_FALSE(flips.empty());
    for (const auto &f : flips)
        EXPECT_EQ(f.mechanism, Mechanism::Retention);
}

TEST(CellModel, HammerOffWeightIsNormalizedAndMonotonic)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    EXPECT_NEAR(cells.hammerOffWeight(15_ns), 1.0, 1e-9);
    double prev = 0.0;
    for (Time t : {1_ns, 15_ns, 100_ns, 500_ns, 2000_ns, 50000_ns}) {
        const double w = cells.hammerOffWeight(t);
        EXPECT_GT(w, prev);
        prev = w;
    }
    // Unknown history saturates.
    EXPECT_NEAR(cells.hammerOffWeight(-1),
                cells.hammerOffWeight(1_s), 1e-6);
}

TEST(CellModel, DoubleSidedSynergyRaisesDamage)
{
    CellModel cells(dieS8GbB(), 65536, 3);
    // Same total hammer dose, split vs one-sided: the sandwiched
    // distribution must flip at least as many cells.
    DoseState split, single;
    split.hammer[0] = split.hammer[1] = 1e6;
    single.hammer[0] = 2e6;
    RowContext ctx;
    ctx.victimFill = 0x00;
    ctx.dose = &split;
    auto flips_split = cells.evaluate(1, 14, ctx, false, 50.0);
    ctx.dose = &single;
    auto flips_single = cells.evaluate(1, 14, ctx, false, 50.0);
    EXPECT_GT(flips_split.size(), flips_single.size());
}

TEST(FaultModel, HammerDoseGoesToNeighborsWithAttenuation)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0);
    const auto &p = fm.cells().params();
    const double d1 = fm.dose(0, 101).hammer[0];
    const double d2 = fm.dose(0, 102).hammer[0];
    const double d3 = fm.dose(0, 103).hammer[0];
    EXPECT_GT(d1, 0.0);
    EXPECT_NEAR(d2 / d1, p.dist2Rh, 1e-9);
    EXPECT_NEAR(d3 / d1, p.dist3Rh, 1e-9);
    EXPECT_EQ(fm.dose(0, 104).hammer[0], 0.0);
    // Side convention: aggressor below -> side 0; above -> side 1.
    EXPECT_GT(fm.dose(0, 101).hammer[0], 0.0);
    EXPECT_EQ(fm.dose(0, 101).hammer[1], 0.0);
    EXPECT_GT(fm.dose(0, 99).hammer[1], 0.0);
    EXPECT_EQ(fm.dose(0, 99).hammer[0], 0.0);
}

TEST(FaultModel, PressDoseScalesWithOnTimeAndTemperature)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.setTemperature(50.0);
    fm.onPrecharge(0, 100, 0, 10_us);
    const double d50 = fm.dose(0, 101).press[0];
    fm.onRestore(0, 101, 0);
    fm.setTemperature(80.0);
    fm.onPrecharge(0, 100, 10_us, 20_us);
    const double d80 = fm.dose(0, 101).press[0];
    EXPECT_GT(d50, 0.0);
    EXPECT_NEAR(d80 / d50, fm.cells().pressTempFactor(80.0), 1e-6);
}

TEST(FaultModel, PressOnsetSubtractsPerInterval)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    const Time onset = fm.cells().params().pressOnset;
    fm.onPrecharge(0, 100, 0, onset); // exactly the onset: no dose
    EXPECT_EQ(fm.dose(0, 101).press[0], 0.0);
    fm.onPrecharge(0, 100, 0, onset + 100_ns);
    EXPECT_NEAR(fm.dose(0, 101).press[0], double(100_ns), 1.0);
}

TEST(FaultModel, RestoreClearsDoseAndStartsRetention)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0);
    EXPECT_FALSE(fm.dose(0, 101).empty());
    fm.onRestore(0, 101, 1_ms);
    EXPECT_TRUE(fm.dose(0, 101).empty());
    EXPECT_NEAR(fm.retentionSeconds(0, 101, 1_ms + 2_s),
                2.0 * fm.cells().retentionTempFactor(50.0), 1e-9);
}

TEST(FaultModel, SnapshotScaleReplaysLinearGrowth)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onPrecharge(0, 100, 0, 1_us);
    const double base = fm.dose(0, 101).press[0];
    auto before = fm.snapshotDoses();
    fm.onPrecharge(0, 100, 2_us, 3_us);
    const double one_iter = fm.dose(0, 101).press[0] - base;
    fm.scaleDoseDelta(before, 9.0); // replay 9 more iterations
    EXPECT_NEAR(fm.dose(0, 101).press[0], base + 10.0 * one_iter, 1e-3);
}

TEST(FaultModel, ScaleLeavesRowsRestoredAfterTheSnapshotAlone)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    fm.onActivate(0, 100, 0);
    const double w = fm.dose(0, 99).hammer[1];
    const auto before = fm.snapshotDoses();
    fm.onActivate(0, 100, 1_us);
    fm.onRestore(0, 101, 2_us); // restored, not dosed since
    fm.scaleDoseDelta(before, 9.0);
    // Without a "dosed since restore" mark the restored row would be
    // extrapolated from its pre-restore snapshot and go negative.
    EXPECT_TRUE(fm.dose(0, 101).empty());
    // Rows dosed since the snapshot keep growing: 2w + 9 * w.
    EXPECT_DOUBLE_EQ(fm.dose(0, 99).hammer[1], 11.0 * w);
}

TEST(FaultModel, UntouchedRowHasUnknownOffTime)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    const double temp = fm.cells().hammerTempFactor(fm.temperature());
    // No close history: t_off = -1 (fully recovered).
    fm.onActivate(0, 100, 10_ns);
    EXPECT_EQ(fm.dose(0, 101).hammer[0],
              fm.cells().hammerOffWeight(-1) * temp);
    // A close at t = 0 is history like any other.
    fm.onPrecharge(0, 200, 0, 0);
    fm.onActivate(0, 200, 10_ns);
    EXPECT_EQ(fm.dose(0, 201).hammer[0],
              fm.cells().hammerOffWeight(10_ns) * temp);
    EXPECT_LT(fm.cells().hammerOffWeight(10_ns),
              fm.cells().hammerOffWeight(-1));
}

TEST(FaultModel, HistoryShiftMovesARestoreAtTimeZero)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    const FaultModel &fm = chip.fault();
    const double factor = fm.cells().retentionTempFactor(fm.temperature());
    chip.fillRow(0, 50, 0xAA, 0); // restored at t = 0
    chip.fault().shiftRowHistory(0, 50, 1_s);
    EXPECT_DOUBLE_EQ(fm.retentionSeconds(0, 50, 3_s), 2.0 * factor);
    // A never-restored row counts from t = 0; a shift cannot move it.
    chip.fault().shiftRowHistory(0, 60, 1_s);
    EXPECT_DOUBLE_EQ(fm.retentionSeconds(0, 60, 3_s), 3.0 * factor);
}

TEST(FaultModel, LookupsOfUntouchedRowsAllocateNothing)
{
    FaultModel fm(dieS8GbB(), smallOrg(), 1);
    EXPECT_TRUE(fm.dose(3, 500).empty());
    EXPECT_GT(fm.retentionSeconds(3, 500, 1_s), 0.0);
    fm.shiftRowHistory(3, 500, 1_s);
    // Out-of-range rows read as untouched too.
    EXPECT_TRUE(fm.dose(0, -1).empty());
    EXPECT_TRUE(fm.dose(0, smallOrg().rows).empty());
    EXPECT_TRUE(fm.dose(smallOrg().totalBanks(), 0).empty());
    EXPECT_EQ(fm.touchedPages(), 0u);
    fm.onActivate(3, 500, 0);
    EXPECT_GT(fm.touchedPages(), 0u);
}

TEST(Chip, FillReadAndFlipLatching)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.fillRow(0, 50, 0xAA, 0);
    EXPECT_EQ(chip.rowFill(0, 50), 0xAA);
    EXPECT_EQ(chip.readByte(0, 50, 17), 0xAA);
    EXPECT_TRUE(chip.storedFlipBits(0, 50).empty());

    // Force a huge press dose onto row 51 and materialize.
    chip.fillRow(0, 51, 0xFF, 0);
    chip.fault().onPrecharge(0, 50, 0, 2_s);
    auto flips = chip.materializeRow(0, 51, 2_s);
    ASSERT_FALSE(flips.empty());
    auto stored = chip.storedFlipBits(0, 51);
    EXPECT_EQ(stored.size(), flips.size());
    // Flipped bits read back inverted.
    const int bit = flips.front().bit;
    EXPECT_EQ((chip.readByte(0, 51, bit / 8) >> (bit % 8)) & 1, 0);
    // Dose is cleared by materialization.
    EXPECT_TRUE(chip.fault().dose(0, 51).empty());
}

TEST(Chip, ActRestoresOwnRowAndDisturbsNeighbors)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.act(0, 100, 0);
    EXPECT_FALSE(chip.fault().dose(0, 101).empty());
    EXPECT_TRUE(chip.fault().dose(0, 100).empty());
    auto interval = chip.pre(0, 36_ns);
    EXPECT_EQ(interval.row, 100);
    EXPECT_GT(chip.fault().dose(0, 101).press[0], 0.0);
}

TEST(Chip, RefreshStripeRestoresTrackedRows)
{
    dram::Organization org = smallOrg(); // 4096 rows / 8192 REFs
    Chip chip(dieS8GbB(), org, dram::benderTiming(), 1);
    chip.fillRow(0, 0, 0x55, 0);
    chip.fault().onActivate(0, 1, 0);
    ASSERT_FALSE(chip.fault().dose(0, 0).empty());
    chip.refresh(1_us); // stripe 0 covers row 0
    EXPECT_TRUE(chip.fault().dose(0, 0).empty());
}

TEST(Chip, RefreshRestoresAndLatchesARowWithDataButNoDose)
{
    dram::Organization org = smallOrg(); // 4096 rows / 8192 REFs
    Chip chip(dieS8GbB(), org, dram::benderTiming(), 1);
    chip.setTemperature(80.0);
    chip.fillRow(0, 0, 0xFF, 0);
    const Time now = 7200_s; // two hours unrefreshed at 80 C
    ASSERT_TRUE(chip.fault().dose(0, 0).empty());
    ASSERT_TRUE(chip.rowWouldFlip(0, 0, now));
    chip.refresh(now); // stripe 0 covers row 0
    EXPECT_FALSE(chip.storedFlipBits(0, 0).empty());
    EXPECT_EQ(chip.fault().retentionSeconds(0, 0, now), 0.0);
}

/** Everything observable about rows 40..60 of bank 0 at @p now. */
std::vector<double>
observeRows(const Chip &chip, Time now)
{
    std::vector<double> seen;
    for (int r = 40; r <= 60; ++r) {
        seen.push_back(chip.rowFill(0, r));
        for (int bit : chip.storedFlipBits(0, r))
            seen.push_back(bit);
        const DoseState &d = chip.fault().dose(0, r);
        seen.insert(seen.end(), {d.hammer[0], d.hammer[1], d.press[0],
                                 d.press[1]});
        seen.push_back(chip.fault().retentionSeconds(0, r, now));
    }
    return seen;
}

/** Fill, press and hammer rows 50/51, latch 51's flips; observe. */
std::vector<double>
pressScenario(Chip &chip)
{
    chip.fillRow(0, 50, 0xAA, 0);
    chip.fillRow(0, 51, 0xFF, 0);
    chip.act(0, 50, 0);
    chip.pre(0, 2_s);
    chip.act(0, 50, 2_s + 100_ns);
    chip.pre(0, 2_s + 200_ns);
    chip.materializeRow(0, 51, 3_s);
    return observeRows(chip, 3_s);
}

TEST(Chip, ResetThenReuseMatchesAFreshChip)
{
    Chip used(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    // Dirty rows the scenario never writes: data, flips, dose, close
    // and restore history, an open bank.
    used.fillRow(0, 45, 0xFF, 0);
    used.fault().onPrecharge(0, 44, 0, 2_s);
    ASSERT_FALSE(used.materializeRow(0, 45, 2_s).empty());
    used.act(0, 55, 3_s);
    used.reset();

    Chip fresh(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    const auto expected = pressScenario(fresh);
    ASSERT_FALSE(fresh.storedFlipBits(0, 51).empty());
    EXPECT_EQ(pressScenario(used), expected);
}

TEST(Chip, EvalNoiseMakesNearThresholdFlipsStochastic)
{
    Chip chip(dieS8GbB(), smallOrg(), dram::benderTiming(), 1);
    chip.fault().setEvalNoiseSigma(0.0);
    chip.fillRow(0, 61, 0xFF, 0);
    // Find the exact threshold dose of row 61 via its candidates.
    const double min_theta =
        chip.fault().cells().rowCandidates(0, 61).minThetaP;
    // 99% of the threshold: never flips without noise.
    chip.fault().onPrecharge(0, 60, 0, Time(min_theta * 0.99 /
                                            (1.0 + 0.15)));
    EXPECT_TRUE(chip.materializeRow(0, 61, 1_ms).empty());
}

} // namespace
} // namespace rp::device
