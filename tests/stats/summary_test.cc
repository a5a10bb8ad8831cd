#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/matrix.hh"
#include "stats/summary.hh"

namespace ns = netchar::stats;

TEST(SummaryTest, MeanBasics)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(ns::mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(ns::mean(std::vector<double>{}), 0.0);
}

TEST(SummaryTest, StddevKnownValue)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // Sample stddev of this classic set is sqrt(32/7).
    EXPECT_NEAR(ns::stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(ns::stddev(std::vector<double>{1.0}), 0.0);
}

TEST(SummaryTest, GeomeanKnownValue)
{
    std::vector<double> xs{1.0, 4.0, 16.0};
    EXPECT_NEAR(ns::geomean(xs), 4.0, 1e-12);
}

TEST(SummaryTest, GeomeanRejectsNonPositive)
{
    EXPECT_THROW(ns::geomean(std::vector<double>{1.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(ns::geomean(std::vector<double>{-1.0}),
                 std::invalid_argument);
}

TEST(SummaryTest, PearsonPerfectCorrelation)
{
    std::vector<double> xs{1.0, 2.0, 3.0};
    std::vector<double> up{2.0, 4.0, 6.0};
    std::vector<double> down{6.0, 4.0, 2.0};
    EXPECT_NEAR(ns::pearson(xs, up), 1.0, 1e-12);
    EXPECT_NEAR(ns::pearson(xs, down), -1.0, 1e-12);
}

TEST(SummaryTest, PearsonConstantSeriesIsZero)
{
    std::vector<double> xs{1.0, 2.0, 3.0};
    std::vector<double> flat{5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(ns::pearson(xs, flat), 0.0);
}

TEST(SummaryTest, PearsonLengthMismatchThrows)
{
    std::vector<double> a{1.0, 2.0};
    std::vector<double> b{1.0};
    EXPECT_THROW(ns::pearson(a, b), std::invalid_argument);
}

TEST(SummaryTest, CorrelationMatrixStructure)
{
    // Col 0 and col 1 perfectly correlated; col 2 constant.
    ns::Matrix data{{1.0, 2.0, 5.0},
                    {2.0, 4.0, 5.0},
                    {3.0, 6.0, 5.0}};
    const auto corr = ns::correlationMatrix(data);
    EXPECT_EQ(corr.rows(), 3u);
    EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);
    EXPECT_NEAR(corr(0, 1), 1.0, 1e-12);
    EXPECT_NEAR(corr(1, 0), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(corr(0, 2), 0.0); // constant column
    EXPECT_DOUBLE_EQ(corr(2, 2), 1.0);
}

TEST(SummaryTest, SummarizeBundle)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    auto s = ns::summarize(xs);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_GT(s.stddev, 0.0);
}

TEST(SummaryTest, ColumnMeansAndStddevs)
{
    ns::Matrix m{{1.0, 10.0}, {3.0, 10.0}};
    auto means = ns::columnMeans(m);
    EXPECT_DOUBLE_EQ(means[0], 2.0);
    EXPECT_DOUBLE_EQ(means[1], 10.0);
    auto devs = ns::columnStddevs(m);
    EXPECT_NEAR(devs[0], std::sqrt(2.0), 1e-12);
    EXPECT_DOUBLE_EQ(devs[1], 0.0);
}

TEST(SummaryTest, StandardizeColumnsProducesZScores)
{
    ns::Matrix m{{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}};
    auto z = ns::standardizeColumns(m);
    // Column 0: mean 2, sample stddev 1.
    EXPECT_NEAR(z(0, 0), -1.0, 1e-12);
    EXPECT_NEAR(z(1, 0), 0.0, 1e-12);
    EXPECT_NEAR(z(2, 0), 1.0, 1e-12);
    // Constant column maps to zeros, not NaN.
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_DOUBLE_EQ(z(r, 1), 0.0);
}

TEST(SanitizeTest, CleanMatrixPassesThroughUntouched)
{
    ns::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    ns::SanitizeReport report;
    const auto out = ns::sanitizeMatrix(m, report);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.droppedRows.empty());
    ASSERT_EQ(out.rows(), 2u);
    EXPECT_DOUBLE_EQ(out(1, 1), 4.0);
}

TEST(SanitizeTest, NonFiniteCellsAreReportedAndRowsDropped)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    ns::Matrix m{{1.0, 2.0, 3.0},
                 {nan, 5.0, 6.0},
                 {7.0, 8.0, -inf},
                 {9.0, 10.0, 11.0}};
    ns::SanitizeReport report;
    const auto out = ns::sanitizeMatrix(m, report);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_EQ(report.cells[0].row, 1u);
    EXPECT_EQ(report.cells[0].col, 0u);
    EXPECT_EQ(report.cells[0].value, "nan");
    EXPECT_EQ(report.cells[1].row, 2u);
    EXPECT_EQ(report.cells[1].col, 2u);
    EXPECT_EQ(report.cells[1].value, "-inf");
    ASSERT_EQ(report.droppedRows.size(), 2u);
    EXPECT_EQ(report.droppedRows[0], 1u);
    EXPECT_EQ(report.droppedRows[1], 2u);
    // Survivors keep their order and values — never imputed.
    ASSERT_EQ(out.rows(), 2u);
    EXPECT_DOUBLE_EQ(out(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(out(1, 2), 11.0);
}

TEST(SanitizeTest, DescribeNamesEveryOffendingCell)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ns::Matrix m{{1.0, nan}, {2.0, 3.0}};
    ns::SanitizeReport report;
    ns::sanitizeMatrix(m, report);
    const auto msg = report.describe(2);
    EXPECT_NE(msg.find("dropped 1 of 2 rows"), std::string::npos);
    EXPECT_NE(msg.find("(0,1)"), std::string::npos);
    EXPECT_NE(msg.find("nan"), std::string::npos);
}

TEST(SanitizeTest, DropRowsPreservesOrderAndIgnoresDuplicates)
{
    ns::Matrix m{{0.0}, {1.0}, {2.0}, {3.0}};
    const std::size_t drops[] = {1, 1, 3};
    const auto out = ns::dropRows(m, drops);
    ASSERT_EQ(out.rows(), 2u);
    EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(out(1, 0), 2.0);
}

TEST(SummaryTest, StandardizedColumnsHaveUnitVariance)
{
    ns::Matrix m{{1.0, 9.0}, {4.0, 2.0}, {2.0, 3.0}, {8.0, 1.0}};
    auto z = ns::standardizeColumns(m);
    for (std::size_t c = 0; c < z.cols(); ++c) {
        auto column = z.col(c);
        EXPECT_NEAR(ns::mean(column), 0.0, 1e-12);
        EXPECT_NEAR(ns::stddev(column), 1.0, 1e-12);
    }
}
