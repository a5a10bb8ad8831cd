#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/subset.hh"
#include "core/topdown.hh"
#include "stats/rng.hh"

using namespace netchar;

namespace
{

/** Synthetic metric rows forming two well-separated behavior groups. */
std::vector<MetricVector>
twoGroups(std::size_t per_group)
{
    netchar::stats::Rng rng(11);
    std::vector<MetricVector> rows;
    for (std::size_t g = 0; g < 2; ++g) {
        for (std::size_t i = 0; i < per_group; ++i) {
            MetricVector m{};
            const double base = g == 0 ? 5.0 : 50.0;
            for (std::size_t k = 0; k < kNumMetrics; ++k)
                m[k] = base + rng.uniform(-1.0, 1.0);
            rows.push_back(m);
        }
    }
    return rows;
}

} // namespace

TEST(SubsetTest, PipelineSeparatesBehaviorGroups)
{
    const auto rows = twoGroups(8);
    SubsetOptions opts;
    opts.subsetSize = 2;
    const auto result = buildSubset(rows, opts);
    ASSERT_EQ(result.clusters.size(), 2u);
    // Each cluster must be entirely within one behavior group.
    for (const auto &cluster : result.clusters) {
        const bool first_group = cluster.front() < 8;
        for (auto idx : cluster)
            EXPECT_EQ(idx < 8, first_group);
    }
    EXPECT_EQ(result.representatives.size(), 2u);
}

TEST(SubsetTest, PcaRetainsRequestedComponents)
{
    const auto rows = twoGroups(10);
    SubsetOptions opts;
    opts.components = 4;
    opts.subsetSize = 4;
    const auto result = buildSubset(rows, opts);
    EXPECT_EQ(result.pca.loadings.rows(), 4u);
    EXPECT_EQ(result.pca.scores.cols(), 4u);
    EXPECT_EQ(result.dendrogram.leafCount, 20u);
}

TEST(SubsetTest, RejectsTooSmallCorpus)
{
    const auto rows = twoGroups(2); // 4 benchmarks
    SubsetOptions opts;
    opts.subsetSize = 8;
    EXPECT_THROW(buildSubset(rows, opts), std::invalid_argument);
}

TEST(SubsetTest, NonFiniteRowsAreDroppedAndIndicesMapBack)
{
    auto rows = twoGroups(8); // rows 0..7 group A, 8..15 group B
    rows[3][5] = std::numeric_limits<double>::quiet_NaN();
    SubsetOptions opts;
    opts.subsetSize = 2;
    const auto result = buildSubset(rows, opts);

    // The poisoned row is reported dropped, never imputed.
    ASSERT_EQ(result.sanitize.droppedRows.size(), 1u);
    EXPECT_EQ(result.sanitize.droppedRows[0], 3u);
    ASSERT_EQ(result.sanitize.cells.size(), 1u);
    EXPECT_EQ(result.sanitize.cells[0].row, 3u);
    EXPECT_EQ(result.sanitize.cells[0].col, 5u);

    // rowMap skips the dropped row: sanitized row i maps to original
    // row i for i < 3 and i + 1 afterwards.
    ASSERT_EQ(result.rowMap.size(), 15u);
    EXPECT_EQ(result.rowMap[2], 2u);
    EXPECT_EQ(result.rowMap[3], 4u);
    EXPECT_EQ(result.rowMap[14], 15u);

    // Clusters and representatives use ORIGINAL indices, never 3,
    // and the two behavior groups still separate over survivors.
    std::size_t seen = 0;
    for (const auto &cluster : result.clusters) {
        const bool first_group = cluster.front() < 8;
        for (auto idx : cluster) {
            EXPECT_NE(idx, 3u);
            EXPECT_LT(idx, 16u);
            EXPECT_EQ(idx < 8, first_group);
            ++seen;
        }
    }
    EXPECT_EQ(seen, 15u);
    for (auto rep : result.representatives) {
        EXPECT_NE(rep, 3u);
        EXPECT_LT(rep, 16u);
    }
}

TEST(SubsetTest, CleanInputHasIdentityRowMap)
{
    const auto rows = twoGroups(4);
    SubsetOptions opts;
    opts.subsetSize = 2;
    const auto result = buildSubset(rows, opts);
    EXPECT_TRUE(result.sanitize.clean());
    ASSERT_EQ(result.rowMap.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(result.rowMap[i], i);
}

TEST(SubsetTest, SurvivorSubsetSkipsFailedRunsAndIndexesProfiles)
{
    const auto rows = twoGroups(8); // profiles 0..7 group A, 8..15 B
    std::vector<RunResult> results(rows.size());
    SuiteRunStats stats;
    stats.runs.resize(rows.size());
    std::vector<MetricVector> kept;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        stats.runs[i].index = i;
        stats.runs[i].succeeded = i != 2 && i != 9;
        // A failed run's result is default-constructed.
        if (stats.runs[i].succeeded) {
            results[i].metrics = rows[i];
            kept.push_back(rows[i]);
        }
    }
    SubsetOptions opts;
    opts.subsetSize = 2;
    const auto out = buildSurvivorSubset(results, stats, opts);
    EXPECT_EQ(out.surviving, 14u);

    // Same subset as over the survivors alone, re-indexed by profile.
    const auto direct = buildSubset(kept, opts);
    const auto profileOf = [](std::size_t row) {
        return row + (row >= 2) + (row >= 8);
    };
    ASSERT_EQ(out.subset.clusters.size(), direct.clusters.size());
    for (std::size_t c = 0; c < direct.clusters.size(); ++c) {
        EXPECT_EQ(out.subset.representatives[c],
                  profileOf(direct.representatives[c]));
        ASSERT_EQ(out.subset.clusters[c].size(),
                  direct.clusters[c].size());
        for (std::size_t k = 0; k < direct.clusters[c].size(); ++k)
            EXPECT_EQ(out.subset.clusters[c][k],
                      profileOf(direct.clusters[c][k]));
    }
    ASSERT_EQ(out.subset.rowMap.size(), 14u);
    EXPECT_EQ(out.subset.rowMap[1], 1u);
    EXPECT_EQ(out.subset.rowMap[2], 3u);
    EXPECT_EQ(out.subset.rowMap[8], 10u);
}

TEST(SubsetTest, ThrowsWhenTooFewFiniteRowsSurvive)
{
    auto rows = twoGroups(2); // 4 benchmarks
    rows[0][0] = std::numeric_limits<double>::infinity();
    SubsetOptions opts;
    opts.subsetSize = 4; // 3 finite rows < 4
    try {
        buildSubset(rows, opts);
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("finite"), std::string::npos);
    }
}

TEST(ScoreTest, BenchmarkScoresAreTimeRatios)
{
    const std::vector<double> base{2.0, 4.0};
    const std::vector<double> fast{1.0, 1.0};
    const auto scores = benchmarkScores(base, fast);
    EXPECT_DOUBLE_EQ(scores[0], 2.0);
    EXPECT_DOUBLE_EQ(scores[1], 4.0);
    const std::vector<double> one{1.0};
    const std::vector<double> two{1.0, 2.0};
    const std::vector<double> zero{0.0};
    EXPECT_THROW(benchmarkScores(one, two), std::invalid_argument);
    EXPECT_THROW(benchmarkScores(zero, one), std::invalid_argument);
}

TEST(ScoreTest, CompositeIsGeomean)
{
    const std::vector<double> scores{1.0, 4.0};
    EXPECT_DOUBLE_EQ(compositeScore(scores), 2.0);
    const std::vector<std::size_t> subset{1};
    EXPECT_DOUBLE_EQ(compositeScore(scores, subset), 4.0);
    const std::vector<std::size_t> bad{7};
    EXPECT_THROW(compositeScore(scores, bad), std::out_of_range);
}

TEST(ScoreTest, AccuracySymmetricAndCappedAt100)
{
    EXPECT_DOUBLE_EQ(subsetAccuracyPct(2.0, 2.0), 100.0);
    EXPECT_NEAR(subsetAccuracyPct(2.0, 1.8), 90.0, 1e-9);
    EXPECT_NEAR(subsetAccuracyPct(1.8, 2.0), 90.0, 1e-9);
    EXPECT_DOUBLE_EQ(subsetAccuracyPct(0.0, 1.0), 0.0);
}

TEST(OptimumSubsetTest, FindsExactBestForSmallClusters)
{
    // Scores chosen so the full composite is exactly 2.0 and the only
    // perfect choose-1-per-cluster pick is {2.0, 2.0}... i.e. index 1
    // from each cluster.
    const std::vector<double> scores{1.0, 2.0, 4.0, 2.0, 8.0, 1.0};
    const std::vector<std::vector<std::size_t>> clusters{{0, 1},
                                                         {2, 3},
                                                         {4, 5}};
    // Full composite = geomean(1,2,4,2,8,1) = (128)^(1/6) = 2.24...
    const double full = compositeScore(scores);
    const auto best = optimumSubset(scores, clusters);
    const double acc =
        subsetAccuracyPct(full, compositeScore(scores, best.subset));
    EXPECT_DOUBLE_EQ(best.accuracyPct, acc);
    // Exhaustive over 8 combos: optimum must beat or match all.
    for (std::size_t a = 0; a < 2; ++a)
        for (std::size_t b = 0; b < 2; ++b)
            for (std::size_t c = 0; c < 2; ++c) {
                const std::vector<std::size_t> combo{
                    clusters[0][a], clusters[1][b], clusters[2][c]};
                EXPECT_GE(best.accuracyPct + 1e-9,
                          subsetAccuracyPct(
                              full, compositeScore(scores, combo)));
            }
}

TEST(OptimumSubsetTest, CappedSearchStillReturnsValidSubset)
{
    // 4 clusters x 8 members = 4096 combos, cap at 10.
    std::vector<double> scores(32);
    netchar::stats::Rng rng(5);
    for (auto &s : scores)
        s = rng.uniform(0.5, 2.0);
    std::vector<std::vector<std::size_t>> clusters(4);
    for (std::size_t i = 0; i < 32; ++i)
        clusters[i / 8].push_back(i);
    const auto best = optimumSubset(scores, clusters, 10);
    ASSERT_EQ(best.subset.size(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_GE(best.subset[c], c * 8);
        EXPECT_LT(best.subset[c], (c + 1) * 8);
    }
    EXPECT_GT(best.accuracyPct, 0.0);
}

TEST(TopDownTest, Level1FractionsSumToOne)
{
    sim::SlotAccount slots;
    slots[sim::SlotNode::Retiring] = 400.0;
    slots[sim::SlotNode::BadSpeculation] = 100.0;
    slots[sim::SlotNode::FeICache] = 200.0;
    slots[sim::SlotNode::BeL3Bound] = 300.0;
    using sim::SlotCategory;
    EXPECT_NEAR(slots.categoryFraction(SlotCategory::Retiring) +
                    slots.categoryFraction(SlotCategory::BadSpeculation) +
                    slots.categoryFraction(SlotCategory::Frontend) +
                    slots.categoryFraction(SlotCategory::Backend),
                1.0, 1e-12);
    EXPECT_DOUBLE_EQ(slots.categoryFraction(SlotCategory::Retiring), 0.4);
    EXPECT_DOUBLE_EQ(slots.categoryFraction(SlotCategory::Frontend), 0.2);
    EXPECT_DOUBLE_EQ(slots.categoryFraction(SlotCategory::Backend), 0.3);
}

TEST(TopDownTest, SharesRenormalizeWithinCategory)
{
    sim::SlotAccount slots;
    slots[sim::SlotNode::FeICache] = 30.0;
    slots[sim::SlotNode::FeITlb] = 10.0;
    slots[sim::SlotNode::Retiring] = 60.0;
    EXPECT_NEAR(slots.share(sim::SlotNode::FeICache), 0.75, 1e-12);
    EXPECT_NEAR(slots.share(sim::SlotNode::FeITlb), 0.25, 1e-12);
}

TEST(TopDownTest, EmptyAccountYieldsZeros)
{
    const sim::SlotAccount slots;
    EXPECT_DOUBLE_EQ(
        slots.categoryFraction(sim::SlotCategory::Retiring), 0.0);
    EXPECT_DOUBLE_EQ(slots.share(sim::SlotNode::FeICache), 0.0);
    EXPECT_DOUBLE_EQ(slots.share(sim::SlotNode::BeL3Bound), 0.0);
}

TEST(TopDownTest, RowHelpersCoverAllNodes)
{
    sim::SlotAccount slots;
    slots[sim::SlotNode::Retiring] = 1.0;
    EXPECT_EQ(level1Rows(slots).size(), 4u);
    EXPECT_EQ(frontendRows(slots).size(), 6u);
    EXPECT_EQ(backendRows(slots).size(), 7u);
}
