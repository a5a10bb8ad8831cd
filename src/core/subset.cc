#include "core/subset.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/summary.hh"

namespace netchar
{

SubsetResult
buildSubset(const std::vector<MetricVector> &metric_rows,
            const SubsetOptions &options)
{
    return buildSubset(toMatrix(metric_rows), options);
}

SubsetResult
buildSubset(const stats::Matrix &metrics, const SubsetOptions &options)
{
    SubsetResult result;

    // Drop-and-report rows with non-finite cells (failed/corrupted
    // runs); the pipeline continues over the survivors.
    const stats::Matrix clean =
        stats::sanitizeMatrix(metrics, result.sanitize);
    result.rowMap.reserve(clean.rows());
    {
        std::size_t next_drop = 0;
        for (std::size_t r = 0; r < metrics.rows(); ++r) {
            if (next_drop < result.sanitize.droppedRows.size() &&
                result.sanitize.droppedRows[next_drop] == r) {
                ++next_drop;
                continue;
            }
            result.rowMap.push_back(r);
        }
    }

    if (clean.rows() < options.subsetSize)
        throw std::invalid_argument(
            "buildSubset: fewer benchmarks than subset size (" +
            std::to_string(clean.rows()) + " finite of " +
            std::to_string(metrics.rows()) + " rows, need " +
            std::to_string(options.subsetSize) + ")");

    stats::PcaOptions pca_opts;
    pca_opts.components = options.components;
    pca_opts.standardize = true;
    result.pca = stats::runPca(clean, pca_opts);
    result.dendrogram = stats::hierarchicalCluster(result.pca.scores);
    result.clusters = result.dendrogram.cut(options.subsetSize);
    result.representatives =
        stats::pickRepresentatives(result.pca.scores, result.clusters);

    // Map cluster members and representatives back to the caller's
    // row numbering (identity when nothing was dropped).
    for (auto &cluster : result.clusters)
        for (auto &idx : cluster)
            idx = result.rowMap[idx];
    for (auto &idx : result.representatives)
        idx = result.rowMap[idx];
    return result;
}

SurvivorSubset
buildSurvivorSubset(const std::vector<RunResult> &results,
                    const SuiteRunStats &stats,
                    const SubsetOptions &options)
{
    std::vector<MetricVector> rows;
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (stats.runs[i].succeeded) {
            rows.push_back(results[i].metrics);
            survivors.push_back(i);
        }
    }
    SurvivorSubset out{buildSubset(rows, options), rows.size()};
    for (auto &cluster : out.subset.clusters)
        for (auto &idx : cluster)
            idx = survivors[idx];
    for (auto &idx : out.subset.representatives)
        idx = survivors[idx];
    for (auto &idx : out.subset.rowMap)
        idx = survivors[idx];
    return out;
}

std::vector<double>
benchmarkScores(std::span<const double> baseline_seconds,
                std::span<const double> machine_seconds)
{
    if (baseline_seconds.size() != machine_seconds.size())
        throw std::invalid_argument("benchmarkScores: length mismatch");
    std::vector<double> scores(baseline_seconds.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
        if (baseline_seconds[i] <= 0.0 || machine_seconds[i] <= 0.0)
            throw std::invalid_argument(
                "benchmarkScores: non-positive time");
        scores[i] = baseline_seconds[i] / machine_seconds[i];
    }
    return scores;
}

double
compositeScore(std::span<const double> scores)
{
    return stats::geomean(scores);
}

double
compositeScore(std::span<const double> scores,
               std::span<const std::size_t> subset)
{
    std::vector<double> picked;
    picked.reserve(subset.size());
    for (std::size_t idx : subset) {
        if (idx >= scores.size())
            throw std::out_of_range("compositeScore: bad index");
        picked.push_back(scores[idx]);
    }
    return stats::geomean(picked);
}

double
subsetAccuracyPct(double full_composite, double subset_composite)
{
    if (full_composite <= 0.0 || subset_composite <= 0.0)
        return 0.0;
    const double ratio = subset_composite / full_composite;
    return 100.0 * std::min(ratio, 1.0 / ratio);
}

OptimumSubset
optimumSubset(std::span<const double> scores,
              const std::vector<std::vector<std::size_t>> &clusters,
              std::uint64_t max_combinations)
{
    if (clusters.empty())
        throw std::invalid_argument("optimumSubset: no clusters");
    const double full = compositeScore(scores);

    OptimumSubset best;
    best.subset.resize(clusters.size());
    std::vector<std::size_t> choice(clusters.size(), 0);

    // Initialize with the first member of each cluster.
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        if (clusters[c].empty())
            throw std::invalid_argument("optimumSubset: empty cluster");
        best.subset[c] = clusters[c][0];
    }
    best.accuracyPct = subsetAccuracyPct(
        full, compositeScore(scores, best.subset));

    // Odometer walk over choose-one-per-cluster combinations.
    std::uint64_t tried = 0;
    bool exhausted_budget = false;
    while (true) {
        std::vector<std::size_t> subset(clusters.size());
        for (std::size_t c = 0; c < clusters.size(); ++c)
            subset[c] = clusters[c][choice[c]];
        const double acc =
            subsetAccuracyPct(full, compositeScore(scores, subset));
        if (acc > best.accuracyPct) {
            best.accuracyPct = acc;
            best.subset = subset;
        }
        if (++tried >= max_combinations) {
            exhausted_budget = true;
            break;
        }
        // Advance the odometer.
        std::size_t pos = 0;
        while (pos < clusters.size()) {
            if (++choice[pos] < clusters[pos].size())
                break;
            choice[pos] = 0;
            ++pos;
        }
        if (pos == clusters.size())
            break; // wrapped: all combinations seen
    }

    if (exhausted_budget) {
        // Greedy refinement: per cluster, swap in the member that
        // maximizes accuracy, repeated until a fixed point.
        bool improved = true;
        while (improved) {
            improved = false;
            for (std::size_t c = 0; c < clusters.size(); ++c) {
                for (std::size_t m : clusters[c]) {
                    auto candidate = best.subset;
                    candidate[c] = m;
                    const double acc = subsetAccuracyPct(
                        full, compositeScore(scores, candidate));
                    if (acc > best.accuracyPct) {
                        best.accuracyPct = acc;
                        best.subset = candidate;
                        improved = true;
                    }
                }
            }
        }
    }
    best.combinationsTried = tried;
    return best;
}

} // namespace netchar
