#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "stats/cluster.hh"
#include "stats/matrix.hh"
#include "stats/rng.hh"

namespace ns = netchar::stats;

namespace
{

/** Two tight groups far apart plus shapes for cut tests. */
ns::Matrix
twoBlobs()
{
    return ns::Matrix{
        {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1},     // blob A
        {10.0, 10.0}, {10.1, 10.0}, {10.0, 10.1} // blob B
    };
}

} // namespace

TEST(EuclideanTest, KnownDistance)
{
    EXPECT_DOUBLE_EQ(ns::euclidean({0.0, 0.0}, {3.0, 4.0}), 5.0);
    EXPECT_THROW(ns::euclidean({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(ClusterTest, SingleObservation)
{
    ns::Matrix one{{1.0, 2.0}};
    auto dg = ns::hierarchicalCluster(one);
    EXPECT_EQ(dg.leafCount, 1u);
    EXPECT_EQ(dg.nodes.size(), 1u);
    auto clusters = dg.cut(1);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0], (std::vector<std::size_t>{0}));
}

TEST(ClusterTest, EmptyInputThrows)
{
    EXPECT_THROW(ns::hierarchicalCluster(ns::Matrix(0, 2)),
                 std::invalid_argument);
}

TEST(ClusterTest, NodeCountIs2NMinus1)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    EXPECT_EQ(dg.leafCount, 6u);
    EXPECT_EQ(dg.nodes.size(), 11u);
}

TEST(ClusterTest, RootCoversAllLeaves)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    auto leaves = dg.leavesUnder(dg.root());
    std::sort(leaves.begin(), leaves.end());
    EXPECT_EQ(leaves, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ClusterTest, CutAtTwoSeparatesBlobs)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    auto clusters = dg.cut(2);
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0], (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(clusters[1], (std::vector<std::size_t>{3, 4, 5}));
}

TEST(ClusterTest, CutAtLeafCountGivesSingletons)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    auto clusters = dg.cut(6);
    ASSERT_EQ(clusters.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(clusters[i], (std::vector<std::size_t>{i}));
}

TEST(ClusterTest, CutBoundsChecked)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    EXPECT_THROW(dg.cut(0), std::invalid_argument);
    EXPECT_THROW(dg.cut(7), std::invalid_argument);
}

TEST(ClusterTest, MergeHeightsMonotonicTowardRoot)
{
    // Under the Lance-Williams family used here, parents should not be
    // lower than both children for well-separated data.
    auto dg = ns::hierarchicalCluster(twoBlobs());
    const auto &root = dg.nodes[static_cast<std::size_t>(dg.root())];
    const auto &left = dg.nodes[static_cast<std::size_t>(root.left)];
    const auto &right = dg.nodes[static_cast<std::size_t>(root.right)];
    EXPECT_GE(root.height, left.height);
    EXPECT_GE(root.height, right.height);
}

TEST(ClusterTest, RenderAsciiContainsAllLabels)
{
    auto dg = ns::hierarchicalCluster(twoBlobs());
    std::vector<std::string> labels{"a", "b", "c", "d", "e", "f"};
    const auto text = dg.renderAscii(labels);
    for (const auto &l : labels)
        EXPECT_NE(text.find("- " + l), std::string::npos) << l;
    EXPECT_THROW(dg.renderAscii({"x"}), std::invalid_argument);
}

TEST(RepresentativeTest, PicksCentroidClosestMember)
{
    const auto data = twoBlobs();
    auto dg = ns::hierarchicalCluster(data);
    auto clusters = dg.cut(2);
    auto reps = ns::pickRepresentatives(data, clusters);
    ASSERT_EQ(reps.size(), 2u);
    // Representative of each blob must belong to that blob.
    EXPECT_LT(reps[0], 3u);
    EXPECT_GE(reps[1], 3u);
}

TEST(RepresentativeTest, EmptyClusterThrows)
{
    EXPECT_THROW(
        ns::pickRepresentatives(twoBlobs(), {{0, 1}, {}}),
        std::invalid_argument);
}

/**
 * Property sweep: clustering random data at every k partitions the
 * observation set (disjoint, complete), and representatives are
 * members of their clusters.
 */
class ClusterPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ClusterPropertyTest, CutIsAPartitionForAllK)
{
    ns::Rng rng(GetParam());
    const std::size_t n = 5 + rng.below(20);
    ns::Matrix data(n, 3);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            data(r, c) = rng.uniform(-4.0, 4.0);

    auto dg = ns::hierarchicalCluster(data);
    for (std::size_t k = 1; k <= n; ++k) {
        auto clusters = dg.cut(k);
        EXPECT_EQ(clusters.size(), k);
        std::set<std::size_t> seen;
        for (const auto &cluster : clusters) {
            EXPECT_FALSE(cluster.empty());
            for (std::size_t m : cluster) {
                EXPECT_TRUE(seen.insert(m).second)
                    << "observation in two clusters";
            }
        }
        EXPECT_EQ(seen.size(), n);

        auto reps = ns::pickRepresentatives(data, clusters);
        ASSERT_EQ(reps.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_TRUE(std::find(clusters[i].begin(), clusters[i].end(),
                                  reps[i]) != clusters[i].end());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomData, ClusterPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));
