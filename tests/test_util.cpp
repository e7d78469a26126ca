/**
 * @file
 * Unit tests for the util layer: Rng, Table, StatsAccumulator,
 * QuantileSampler, unit conversions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats_accumulator.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace wss {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsNotDegenerate)
{
    Rng rng(0);
    std::uint64_t all_or = 0;
    for (int i = 0; i < 16; ++i)
        all_or |= rng();
    EXPECT_NE(all_or, 0u);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(9);
    bool seen[7] = {};
    for (int i = 0; i < 500; ++i)
        seen[rng.nextBelow(7)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, NextInRangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRateIsCalibrated)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

TEST(Rng, WorksWithStdShuffle)
{
    Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::shuffle(v.begin(), v.end(), rng);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Table, RendersAlignedGrid)
{
    Table t("demo", {"a", "longer"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("| a"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t("demo", {"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders)
{
    EXPECT_THROW(Table("x", {}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::num(12345LL), "12345");
}

TEST(Table, CsvQuotesSpecialCharacters)
{
    Table t("demo", {"name", "value"});
    t.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripsTopologyLabels)
{
    // Resilience artifacts carry "clos(3,64)"-style labels: the
    // embedded comma must force quoting while plain fields stay
    // unquoted, so the row still splits into the right columns.
    Table t("demo", {"topology", "survival"});
    t.addRow({"clos(3,64)", "0.9981"});
    t.addRow({"mesh-8x8", "1.0000"});
    std::ostringstream os;
    t.printCsv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"clos(3,64)\",0.9981"), std::string::npos);
    EXPECT_NE(out.find("mesh-8x8,1.0000"), std::string::npos);
    EXPECT_EQ(out.find("\"mesh-8x8\""), std::string::npos);
}

TEST(StatsAccumulator, MeanMinMax)
{
    StatsAccumulator acc;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(StatsAccumulator, EmptyIsSafe)
{
    StatsAccumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(QuantileSampler, ExactQuantiles)
{
    QuantileSampler q;
    for (int i = 1; i <= 100; ++i)
        q.add(i);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
    EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(q.quantile(0.99), 99.0, 1.0);
}

// "No samples" must be distinguishable from a measured zero: the
// documented contract is NaN, and callers that serialize pick their
// own sentinel behind an empty() check.
TEST(QuantileSampler, EmptyReturnsNan)
{
    QuantileSampler q;
    EXPECT_TRUE(std::isnan(q.quantile(0.0)));
    EXPECT_TRUE(std::isnan(q.quantile(0.5)));
    EXPECT_TRUE(std::isnan(q.quantile(1.0)));
    // Adding one sample ends the NaN regime.
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 7.0);
}

TEST(QuantileSampler, AddAfterQuantileStaysCorrect)
{
    QuantileSampler a;
    a.add(10.0);
    a.add(2.0);
    // quantile() selects on a scratch copy; samples added after a
    // read must still give exact quantiles over the whole stream.
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 10.0);
    a.add(30.0);
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.0), 2.0);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::tbps(1.6), 1600.0);
    EXPECT_DOUBLE_EQ(units::kilowatts(2.5), 2500.0);
    EXPECT_DOUBLE_EQ(units::toKilowatts(500.0), 0.5);
    EXPECT_DOUBLE_EQ(units::toTbps(51200.0), 51.2);
}

TEST(Units, LinkPowerMatchesHandCalc)
{
    // 51.2 Tbps at 2 pJ/b is the TH-5 I/O budget: ~102.4 W.
    EXPECT_NEAR(units::linkPower(51200.0, 2.0), 102.4, 1e-9);
}

TEST(Logging, WarnOnceFiresExactlyOnceAcrossThreads)
{
    std::atomic<bool> fired{false};
    std::atomic<int> emitted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 100; ++i)
                if (warnOnce(fired, "warn-once stress (expected once)"))
                    ++emitted;
        });
    for (auto &thread : threads)
        thread.join();
    // Exactly one of the 800 racing calls wins the exchange.
    EXPECT_EQ(emitted.load(), 1);
    EXPECT_TRUE(fired.load());

    // The macro flavour: one message per call site, however often the
    // site executes.
    for (int i = 0; i < 3; ++i)
        WSS_WARN_ONCE("macro warn-once (expected once)");
}

TEST(ParsePositiveInt, AcceptsPlainPositiveDecimals)
{
    EXPECT_EQ(util::parseInt("1", "--x"), 1);
    EXPECT_EQ(util::parseInt("64", "--x"), 64);
    EXPECT_EQ(util::parseInt("4096", "--x", 1, 4096), 4096);
    EXPECT_EQ(util::parseInt("007", "--x"), 7);
    // A range that admits them takes zero and negatives.
    EXPECT_EQ(util::parseInt("0", "--x", 0, 10), 0);
    EXPECT_EQ(util::parseInt("-1", "--kill-step", -1, 10), -1);
    // The finite-double parser: whole-string decimals and exponents.
    EXPECT_EQ(util::parseDouble("0.3", "--x", 0.0, 1.0), 0.3);
    EXPECT_EQ(util::parseDouble("7e9", "--x", 1.0, 1e15), 7e9);
    EXPECT_EQ(util::parseDouble("-.5", "--x", -1.0, 1.0), -0.5);
    EXPECT_EQ(util::parseDouble("1", "--x", 1.0, 1.0), 1.0);
}

TEST(ParsePositiveInt, RejectsEverythingElseLoudly)
{
    // The WSS_JOBS contract, but fatal: an explicit CLI value that
    // does not parse must abort, not silently run with a default.
    EXPECT_DEATH(util::parseInt("0", "--seed"),
                 "--seed='0' is not a positive integer");
    EXPECT_DEATH(util::parseInt("-3", "--seed"), "--seed");
    EXPECT_DEATH(util::parseInt("8x", "--ranks"), "--ranks='8x'");
    EXPECT_DEATH(util::parseInt("", "--ranks"), "--ranks");
    EXPECT_DEATH(util::parseInt(" 4", "--x"), "--x");
    EXPECT_DEATH(util::parseInt("+4", "--x"), "--x");
    EXPECT_DEATH(util::parseInt("4.5", "--x"), "--x");
    EXPECT_DEATH(util::parseInt("4097", "--jobs", 1, 4096), "--jobs");
    EXPECT_DEATH(util::parseInt("99999999999999999999", "--x"), "--x");
    // Signed ranges stay strict.
    EXPECT_DEATH(util::parseInt("-", "--x", -5, 5), "--x='-'");
    EXPECT_DEATH(util::parseInt("-6", "--x", -5, 5),
                 "--x='-6' is not an integer \\(-5..5\\)");
    EXPECT_DEATH(util::parseInt("--1", "--x", -5, 5), "--x");
    // Doubles: trailing junk, non-finite, empty, whitespace, signs
    // strtod would skip, and out-of-range values all name the flag
    // and echo the text.
    EXPECT_DEATH(util::parseDouble("300xyz", "--substrate", 1.0, 1e3),
                 "--substrate='300xyz' is not a finite number");
    EXPECT_DEATH(util::parseDouble("0.1xyz", "--x", 0.0, 1.0), "--x");
    EXPECT_DEATH(util::parseDouble("nan", "--max-rate", 0.0, 1.0),
                 "--max-rate='nan'");
    EXPECT_DEATH(util::parseDouble("inf", "--x", 0.0, 1e300), "--x");
    EXPECT_DEATH(util::parseDouble("1e999", "--x", 0.0, 1e300), "--x");
    EXPECT_DEATH(util::parseDouble("", "--x", 0.0, 1.0), "--x");
    EXPECT_DEATH(util::parseDouble(" 1", "--x", 0.0, 2.0), "--x");
    EXPECT_DEATH(util::parseDouble("+1", "--x", 0.0, 2.0), "--x");
    EXPECT_DEATH(util::parseDouble("1.5", "--x", 0.0, 1.0),
                 "--x='1.5' is not a finite number \\(0..1\\)");
}

} // namespace
} // namespace wss
