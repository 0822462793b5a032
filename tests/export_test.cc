/**
 * @file
 * CSV export tests: escaping, tidy-format layout, and round-trip
 * sanity on real sweep results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "chr/export.h"
#include "core/engine.h"

namespace rp::chr {
namespace {

using namespace rp::literals;

/** The engine-parallel single-sided sweep on a one-thread engine. */
std::vector<SweepPoint>
sweepOnOneThread(const ModuleConfig &cfg, const std::vector<Time> &t_agg_ons)
{
    core::ExperimentEngine::Options opts;
    opts.numThreads = 1;
    core::ExperimentEngine engine(opts);
    return acminSweep(cfg, engine, t_agg_ons, AccessKind::SingleSided);
}

TEST(CsvExport, EscapingRules)
{
    EXPECT_EQ(csvRow({"a", "b", "c"}), "a,b,c\n");
    EXPECT_EQ(csvRow({"a,b"}), "\"a,b\"\n");
    EXPECT_EQ(csvRow({"say \"hi\""}), "\"say \"\"hi\"\"\"\n");
    EXPECT_EQ(csvRow({"line\nbreak"}), "\"line\nbreak\"\n");
    // A bare carriage return must be quoted too (a reader would
    // otherwise see a broken record).
    EXPECT_EQ(csvRow({"cr\rhere"}), "\"cr\rhere\"\n");
    EXPECT_EQ(csvRow({}), "\n");
}

TEST(CsvExport, ParseRoundTrip)
{
    const std::vector<std::vector<std::string>> rows = {
        {"plain", "with,comma", "with \"quotes\""},
        {"multi\nline", "cr\rfield", ""},
        {"trailing", "x", "y"},
    };
    std::string text;
    for (const auto &row : rows)
        text += csvRow(row);

    const auto parsed = parseCsv(text);
    ASSERT_EQ(parsed.size(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(parsed[r].size(), rows[r].size()) << "row " << r;
        for (std::size_t c = 0; c < rows[r].size(); ++c)
            EXPECT_EQ(parsed[r][c], rows[r][c])
                << "row " << r << " col " << c;
    }
}

TEST(CsvExport, ParseHandlesMissingTrailingNewline)
{
    const auto parsed = parseCsv("a,b\nc,d");
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvExport, SweepRoundTripValues)
{
    ModuleConfig cfg;
    cfg.die = device::dieS8GbD();
    cfg.numLocations = 3;
    cfg.temperatureC = 80.0;
    auto sweep = sweepOnOneThread(cfg, {7800_ns, 70200_ns});

    std::ostringstream os;
    writeAcminSweepCsv(os, cfg.die.id, 80.0, AccessKind::SingleSided,
                       DataPattern::CheckerBoard, sweep);
    const auto parsed = parseCsv(os.str());

    // Header + one record per (point, location), 10 fields each.
    ASSERT_EQ(parsed.size(), 1u + 2u * 3u);
    ASSERT_EQ(parsed[0].size(), 10u);
    EXPECT_EQ(parsed[0][0], "die");
    EXPECT_EQ(parsed[0][7], "acmin");
    for (std::size_t r = 1; r < parsed.size(); ++r) {
        ASSERT_EQ(parsed[r].size(), 10u) << "record " << r;
        EXPECT_EQ(parsed[r][0], "S-8Gb-D");
        EXPECT_EQ(parsed[r][2], "Single-Sided");
    }
    // Value spot-check: the first record matches the first location
    // of the first sweep point.
    ASSERT_FALSE(sweep.empty());
    ASSERT_FALSE(sweep[0].locations.empty());
    const auto &loc = sweep[0].locations[0];
    EXPECT_EQ(parsed[1][5], std::to_string(loc.row));
    EXPECT_EQ(parsed[1][7], std::to_string(loc.acmin));
    EXPECT_EQ(parsed[1][8], std::to_string(loc.flips.size()));
}

TEST(CsvExport, AcminSweepTidyFormat)
{
    ModuleConfig cfg;
    cfg.die = device::dieS8GbD();
    cfg.numLocations = 3;
    cfg.temperatureC = 80.0;
    auto sweep = sweepOnOneThread(cfg, {7800_ns, 70200_ns});

    std::ostringstream os;
    writeAcminSweepCsv(os, cfg.die.id, 80.0, AccessKind::SingleSided,
                       DataPattern::CheckerBoard, sweep);
    const std::string out = os.str();

    // Header + 2 points x 3 locations.
    std::size_t lines = 0;
    for (char c : out)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 1u + 2u * 3u);
    EXPECT_NE(out.find("die,temperature_c,kind"), std::string::npos);
    EXPECT_NE(out.find("S-8Gb-D,80.0"), std::string::npos);
    EXPECT_NE(out.find("7800.0"), std::string::npos);
}

TEST(CsvExport, TAggOnMinFormat)
{
    ModuleConfig cfg;
    cfg.die = device::dieS8GbD();
    cfg.numLocations = 2;
    Module module(cfg);
    auto point = tAggOnMinPoint(module, 100, AccessKind::SingleSided);

    std::ostringstream os;
    writeTAggOnMinCsv(os, cfg.die.id, 50.0, {point});
    EXPECT_NE(os.str().find("taggonmin_us"), std::string::npos);
    EXPECT_NE(os.str().find("100"), std::string::npos);
}

TEST(CsvExport, OverlapFormat)
{
    std::vector<OverlapResult> results = {
        {7800_ns, 42, 0.0, 0.01},
    };
    std::ostringstream os;
    writeOverlapCsv(os, "S-8Gb-B", results);
    const std::string out = os.str();
    EXPECT_NE(out.find("overlap_rowhammer"), std::string::npos);
    EXPECT_NE(out.find("S-8Gb-B,7800.0"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

} // namespace
} // namespace rp::chr
