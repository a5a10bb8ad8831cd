/**
 * @file
 * Summary statistics used throughout the characterization pipeline:
 * means, standard deviations, geometric means (SPECspeed-style
 * composite scores), Pearson correlation (for the §VII runtime-event
 * studies), and column standardization (z-scores) required before PCA.
 */

#ifndef NETCHAR_STATS_SUMMARY_HH
#define NETCHAR_STATS_SUMMARY_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "stats/matrix.hh"

namespace netchar::stats
{

/** One non-finite value found while screening a data matrix. */
struct NonFiniteCell
{
    std::size_t row = 0;
    std::size_t col = 0;
    /** The offending value, rendered ("nan", "inf", "-inf"). */
    std::string value;
};

/** What sanitizeMatrix() found and did. */
struct SanitizeReport
{
    /** Every non-finite cell, in (row, col) order. */
    std::vector<NonFiniteCell> cells;
    /** Rows removed (each held at least one non-finite cell), in
     *  ascending order of original row index. */
    std::vector<std::size_t> droppedRows;

    /** True when the input was already clean. */
    bool clean() const { return cells.empty(); }
    /** Human-readable one-liner, e.g.
     *  "dropped 2 of 40 rows: non-finite at (3,5)=nan, (17,0)=inf". */
    std::string describe(std::size_t total_rows) const;
};

/**
 * Screen a data matrix for non-finite values and drop every affected
 * row, reporting each offending (row, column) — never silently impute.
 * The returned matrix keeps surviving rows in their original order.
 */
Matrix sanitizeMatrix(const Matrix &data, SanitizeReport &report);

/** Copy `data` without the given rows (ascending, deduplicated). */
Matrix dropRows(const Matrix &data, std::span<const std::size_t> rows);

/** Arithmetic mean; 0 for an empty input. */
double mean(std::span<const double> xs);

/**
 * Sample standard deviation (n-1 denominator); 0 for fewer than two
 * samples.
 */
double stddev(std::span<const double> xs);

/**
 * Geometric mean. All inputs must be > 0 (throws std::invalid_argument
 * otherwise); 0 for an empty input. Used for composite benchmark
 * scores, mirroring SPECspeed.
 */
double geomean(std::span<const double> xs);

/**
 * Pearson correlation coefficient of two equal-length series.
 * Returns 0 when either series is constant (correlation undefined).
 * Throws std::invalid_argument on length mismatch.
 */
double pearson(std::span<const double> xs, std::span<const double> ys);

/**
 * Spearman rank correlation: Pearson over fractional ranks (ties get
 * the average rank). Robust to outliers and monotone-nonlinear
 * couplings; used as a cross-check in the §VII correlation studies.
 */
double spearman(std::span<const double> xs, std::span<const double> ys);

/**
 * Fractional ranks of a series (1-based; ties share the average of
 * the ranks they span).
 */
std::vector<double> fractionalRanks(std::span<const double> xs);

/** Min/max/mean/stddev bundle for reporting. */
struct Summary
{
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/** Compute a Summary over a series; zeroes for an empty input. */
Summary summarize(std::span<const double> xs);

/**
 * Column standardization: subtract each column's mean and divide by its
 * sample standard deviation. Constant columns (stddev == 0) are mapped
 * to all-zero columns rather than NaN, matching common PCA practice for
 * degenerate metrics.
 *
 * @param data One row per observation, one column per metric.
 * @return Matrix of the same shape with z-scored columns.
 */
Matrix standardizeColumns(const Matrix &data);

/** Per-column means of a matrix. */
std::vector<double> columnMeans(const Matrix &data);

/** Per-column sample standard deviations of a matrix. */
std::vector<double> columnStddevs(const Matrix &data);

/**
 * Pearson correlation matrix of the columns of a data matrix
 * (observations x metrics). Constant columns yield zero correlation
 * against everything (and 1 on the diagonal).
 */
Matrix correlationMatrix(const Matrix &data);

} // namespace netchar::stats

#endif // NETCHAR_STATS_SUMMARY_HH
