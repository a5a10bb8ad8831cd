/**
 * @file
 * Minimal dense row-major matrix used by the PCA and clustering code.
 *
 * Deliberately small: the characterization data sets are at most a few
 * thousand rows by a few dozen columns, so no BLAS, no expression
 * templates — just bounds-checked storage plus the handful of
 * operations the analysis pipeline needs.
 */

#ifndef NETCHAR_STATS_MATRIX_HH
#define NETCHAR_STATS_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace netchar::stats
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * Build from nested initializer lists; all inner lists must have
     * the same length. Throws std::invalid_argument otherwise.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** Build from a vector of equal-length rows. */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** Element access, bounds-checked (throws std::out_of_range). */
    double &at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Copy of row r as a vector. */
    std::vector<double> row(std::size_t r) const;

    /** Copy of column c as a vector. */
    std::vector<double> col(std::size_t c) const;

    /** Matrix product this * rhs; dimensions must agree. */
    Matrix multiply(const Matrix &rhs) const;

    /** Elementwise approximate equality within tol. */
    bool approxEquals(const Matrix &other, double tol = 1e-9) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace netchar::stats

#endif // NETCHAR_STATS_MATRIX_HH
