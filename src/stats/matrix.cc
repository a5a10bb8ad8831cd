#include "stats/matrix.hh"

#include <cmath>
#include <stdexcept>

namespace netchar::stats
{

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    Matrix m;
    m.rows_ = rows.size();
    m.cols_ = rows.empty() ? 0 : rows.front().size();
    m.data_.reserve(m.rows_ * m.cols_);
    for (const auto &row : rows) {
        if (row.size() != m.cols_)
            throw std::invalid_argument("Matrix::fromRows: ragged rows");
        m.data_.insert(m.data_.end(), row.begin(), row.end());
    }
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::row(std::size_t r) const
{
    if (r >= rows_)
        throw std::out_of_range("Matrix::row");
    return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double>
Matrix::col(std::size_t c) const
{
    if (c >= cols_)
        throw std::out_of_range("Matrix::col");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        out[r] = (*this)(r, c);
    return out;
}

Matrix
Matrix::multiply(const Matrix &rhs) const
{
    if (cols_ != rhs.rows_)
        throw std::invalid_argument("Matrix::multiply: shape mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(i, k);
            if (a == 0.0)
                continue;
            for (std::size_t j = 0; j < rhs.cols_; ++j)
                out(i, j) += a * rhs(k, j);
        }
    }
    return out;
}

bool
Matrix::approxEquals(const Matrix &other, double tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i)
        if (std::fabs(data_[i] - other.data_[i]) > tol)
            return false;
    return true;
}

} // namespace netchar::stats
