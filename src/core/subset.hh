/**
 * @file
 * Representative-subset construction and validation (§IV): PCA over
 * the Table I metrics, hierarchical clustering over the top PRCOs,
 * one representative per cluster, and SPECspeed-style composite-score
 * validation against a baseline machine.
 */

#ifndef NETCHAR_CORE_SUBSET_HH
#define NETCHAR_CORE_SUBSET_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/metrics.hh"
#include "stats/cluster.hh"
#include "stats/pca.hh"
#include "stats/summary.hh"

namespace netchar
{

/** Options for the subsetting pipeline. */
struct SubsetOptions
{
    /** Principal components retained for clustering (§IV-A: 4). */
    std::size_t components = 4;
    /** Representative subset size (§IV-B: 8). */
    std::size_t subsetSize = 8;
};

/** Output of the subsetting pipeline. */
struct SubsetResult
{
    /** PCA over the (standardized) metric matrix. */
    stats::PcaResult pca;
    /** Merge tree over the PRCO scores. */
    stats::Dendrogram dendrogram;
    /** Clusters after cutting at subsetSize; indices refer to the
     *  ORIGINAL input rows (mapped back through rowMap). */
    std::vector<std::vector<std::size_t>> clusters;
    /** One representative benchmark index per cluster (original
     *  input indices). */
    std::vector<std::size_t> representatives;
    /** Non-finite rows dropped before PCA (never imputed); clean()
     *  when the input was complete. */
    stats::SanitizeReport sanitize;
    /** rowMap[i] = original input row of sanitized row i (identity
     *  for a clean input). pca.scores rows use sanitized indices. */
    std::vector<std::size_t> rowMap;
};

/**
 * Run the full §IV pipeline on a benchmark x metric matrix.
 *
 * Rows holding non-finite values (failed or corrupted runs) are
 * dropped and reported in SubsetResult::sanitize — never silently
 * imputed — and the pipeline proceeds over the survivors; cluster and
 * representative indices are mapped back to original input rows.
 * Throws when fewer than subsetSize finite rows survive.
 *
 * @param metric_rows One MetricVector per benchmark.
 * @param options Component count and subset size.
 */
SubsetResult buildSubset(const std::vector<MetricVector> &metric_rows,
                         const SubsetOptions &options = {});

/** As above but over a pre-built (possibly reduced) matrix. */
SubsetResult buildSubset(const stats::Matrix &metrics,
                         const SubsetOptions &options = {});

/** A subset built over the runs of a sweep that succeeded. */
struct SurvivorSubset
{
    /** Clusters, representatives and rowMap index the sweep's
     *  profiles; pca and sanitize describe the survivors' matrix. */
    SubsetResult subset;
    /** Runs that succeeded: the rows the subset was built over. */
    std::size_t surviving = 0;
};

/**
 * Keep-going subsetting: buildSubset over the succeeded runs of a
 * runAll sweep, with indices mapped back to the sweep's profiles.
 * Throws as buildSubset does.
 *
 * @param results runAll results, one per profile.
 * @param stats The sweep's ledger (which runs succeeded).
 */
SurvivorSubset
buildSurvivorSubset(const std::vector<RunResult> &results,
                    const SuiteRunStats &stats,
                    const SubsetOptions &options = {});

/**
 * Per-benchmark score: execution time on the baseline machine divided
 * by execution time on the evaluated machine (§IV-C). Throws on
 * non-positive times or length mismatch.
 */
std::vector<double>
benchmarkScores(std::span<const double> baseline_seconds,
                std::span<const double> machine_seconds);

/** Composite score: geomean over benchmark scores. */
double compositeScore(std::span<const double> scores);

/** Composite restricted to a subset of benchmark indices. */
double compositeScore(std::span<const double> scores,
                      std::span<const std::size_t> subset);

/**
 * Validation accuracy: how close the subset composite is to the full
 * composite, as a percentage (100 = identical).
 */
double subsetAccuracyPct(double full_composite,
                         double subset_composite);

/** Result of searching for the best choose-1-per-cluster subset. */
struct OptimumSubset
{
    std::vector<std::size_t> subset;
    double accuracyPct = 0.0;
    /** Combinations examined (capped search is reported honestly). */
    std::uint64_t combinationsTried = 0;
};

/**
 * The paper's Subset A(o): iterate over choose-one-per-cluster
 * combinations and keep the subset whose composite best matches the
 * full-suite composite. The search is capped; when the cap is hit, a
 * greedy refinement finishes the job.
 *
 * @param scores Per-benchmark scores.
 * @param clusters Cluster membership (from SubsetResult).
 * @param max_combinations Exhaustive-search budget.
 */
OptimumSubset
optimumSubset(std::span<const double> scores,
              const std::vector<std::vector<std::size_t>> &clusters,
              std::uint64_t max_combinations = 2'000'000);

} // namespace netchar

#endif // NETCHAR_CORE_SUBSET_HH
