/**
 * @file
 * Tests for the benches' ASCII bar.
 */

#include <limits>

#include <gtest/gtest.h>

#include "sim/report.hh"

namespace
{

using namespace ssmt::sim;

TEST(ReportTest, AsciiBarScales)
{
    EXPECT_EQ(asciiBar(0.0, 0.1), "");
    EXPECT_EQ(asciiBar(0.5, 0.1), "#####");
    EXPECT_EQ(asciiBar(1.0, 0.5), "##");
}

TEST(ReportTest, AsciiBarCaps)
{
    EXPECT_EQ(asciiBar(1000.0, 1.0, 10).size(), 10u);
}

TEST(ReportTest, AsciiBarNegativeAndZeroUnit)
{
    EXPECT_EQ(asciiBar(-1.0, 0.1), "");
    EXPECT_EQ(asciiBar(5.0, 0.0), "");
}

TEST(ReportTest, AsciiBarNonFinite)
{
    double inf = std::numeric_limits<double>::infinity();
    double nan = std::numeric_limits<double>::quiet_NaN();
    // Casting a non-finite double to int is undefined behavior; the
    // bar must clamp in the double domain instead.
    EXPECT_EQ(asciiBar(inf, 1.0, 10).size(), 10u);
    EXPECT_EQ(asciiBar(-inf, 1.0, 10), "");
    EXPECT_EQ(asciiBar(nan, 1.0, 10), "");
    EXPECT_EQ(asciiBar(1.0, 0.0, 10), "");  // inf ratio via unit
}

} // namespace
