/**
 * @file
 * Agglomerative hierarchical clustering over PRCO score vectors, the
 * §IV-B machinery behind Figure 1 and the representative-subset
 * construction of Table IV.
 *
 * Benchmarks start as singleton clusters; the two clusters with the
 * smallest linkage distance merge repeatedly until one root remains.
 * Cutting the resulting dendrogram at k clusters and picking one leaf
 * per cluster yields a k-element representative subset.
 */

#ifndef NETCHAR_STATS_CLUSTER_HH
#define NETCHAR_STATS_CLUSTER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "stats/matrix.hh"

namespace netchar::stats
{

/**
 * One node of the dendrogram. Leaves represent input observations;
 * internal nodes record the merge distance. Nodes are stored in a flat
 * vector: entries [0, n) are the leaves, each later entry merges two
 * earlier ones.
 */
struct DendrogramNode
{
    /** Children indices into Dendrogram::nodes; -1/-1 for leaves. */
    int left = -1;
    int right = -1;

    /** Leaf: observation index; internal: -1. */
    int observation = -1;

    /** Linkage distance at which this merge happened (0 for leaves). */
    double height = 0.0;

    /** Number of leaves under this node. */
    std::size_t size = 1;

    bool isLeaf() const { return observation >= 0; }
};

/** Full merge tree produced by hierarchicalCluster(). */
struct Dendrogram
{
    /** 2n-1 nodes; the last one is the root (for n >= 1). */
    std::vector<DendrogramNode> nodes;

    /** Number of observations (leaves). */
    std::size_t leafCount = 0;

    /** Index of the root node. */
    int root() const { return static_cast<int>(nodes.size()) - 1; }

    /**
     * Cut the tree into exactly k clusters (1 <= k <= leafCount) by
     * undoing the k-1 highest merges. Returns, per cluster, the member
     * observation indices in ascending order; clusters are ordered by
     * their smallest member.
     */
    std::vector<std::vector<std::size_t>> cut(std::size_t k) const;

    /** Leaf observation indices under node (in left-to-right order). */
    std::vector<std::size_t> leavesUnder(int node) const;

    /**
     * Render an ASCII tree (Figure 1 style), one leaf per line with
     * merge heights annotated on internal nodes.
     *
     * @param labels One label per observation.
     */
    std::string renderAscii(const std::vector<std::string> &labels) const;
};

/**
 * Cluster row-observations of a score matrix with average linkage
 * (UPGMA), the paper's criterion.
 *
 * @param scores Observations x features (typically the top-4 PRCOs).
 * @return Dendrogram over scores.rows() leaves.
 */
Dendrogram hierarchicalCluster(const Matrix &scores);

/** Euclidean distance between two equal-length vectors. */
double euclidean(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Pick one representative observation per cluster: the member closest
 * to its cluster centroid (deterministic stand-in for the paper's
 * "picked one randomly").
 *
 * @param scores The feature matrix that was clustered.
 * @param clusters Output of Dendrogram::cut().
 * @return One observation index per cluster, cluster order preserved.
 */
std::vector<std::size_t>
pickRepresentatives(const Matrix &scores,
                    const std::vector<std::vector<std::size_t>> &clusters);

} // namespace netchar::stats

#endif // NETCHAR_STATS_CLUSTER_HH
