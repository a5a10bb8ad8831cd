#include "stats/summary.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace netchar::stats
{

namespace
{

std::string
renderValue(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0.0 ? "inf" : "-inf";
    return std::to_string(v);
}

} // namespace

std::string
SanitizeReport::describe(std::size_t total_rows) const
{
    if (clean())
        return "clean";
    std::ostringstream os;
    os << "dropped " << droppedRows.size() << " of " << total_rows
       << " rows: non-finite at ";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << '(' << cells[i].row << ',' << cells[i].col
           << ")=" << cells[i].value;
    }
    return os.str();
}

Matrix
sanitizeMatrix(const Matrix &data, SanitizeReport &report)
{
    report = SanitizeReport{};
    for (std::size_t r = 0; r < data.rows(); ++r) {
        bool bad = false;
        for (std::size_t c = 0; c < data.cols(); ++c) {
            const double v = data(r, c);
            if (!std::isfinite(v)) {
                report.cells.push_back({r, c, renderValue(v)});
                bad = true;
            }
        }
        if (bad)
            report.droppedRows.push_back(r);
    }
    if (report.clean())
        return data;
    return dropRows(data, report.droppedRows);
}

Matrix
dropRows(const Matrix &data, std::span<const std::size_t> rows)
{
    std::vector<bool> drop(data.rows(), false);
    std::size_t dropped = 0;
    for (const std::size_t r : rows) {
        if (r < data.rows() && !drop[r]) {
            drop[r] = true;
            ++dropped;
        }
    }
    Matrix out(data.rows() - dropped, data.cols());
    std::size_t w = 0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
        if (drop[r])
            continue;
        for (std::size_t c = 0; c < data.cols(); ++c)
            out(w, c) = data(r, c);
        ++w;
    }
    return out;
}

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            throw std::invalid_argument("geomean: non-positive input");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    if (xs.size() != ys.size())
        throw std::invalid_argument("pearson: length mismatch");
    if (xs.size() < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

Summary
summarize(std::span<const double> xs)
{
    Summary s;
    if (xs.empty())
        return s;
    s.min = *std::min_element(xs.begin(), xs.end());
    s.max = *std::max_element(xs.begin(), xs.end());
    s.mean = mean(xs);
    s.stddev = stddev(xs);
    return s;
}

std::vector<double>
columnMeans(const Matrix &data)
{
    std::vector<double> means(data.cols(), 0.0);
    if (data.rows() == 0)
        return means;
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c)
            means[c] += data(r, c);
    for (double &m : means)
        m /= static_cast<double>(data.rows());
    return means;
}

std::vector<double>
columnStddevs(const Matrix &data)
{
    std::vector<double> devs(data.cols(), 0.0);
    if (data.rows() < 2)
        return devs;
    const auto means = columnMeans(data);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        for (std::size_t c = 0; c < data.cols(); ++c) {
            const double d = data(r, c) - means[c];
            devs[c] += d * d;
        }
    }
    for (double &v : devs)
        v = std::sqrt(v / static_cast<double>(data.rows() - 1));
    return devs;
}

Matrix
correlationMatrix(const Matrix &data)
{
    const std::size_t m = data.cols();
    Matrix corr(m, m);
    std::vector<std::vector<double>> columns(m);
    for (std::size_t c = 0; c < m; ++c)
        columns[c] = data.col(c);
    for (std::size_t i = 0; i < m; ++i) {
        corr(i, i) = 1.0;
        for (std::size_t j = i + 1; j < m; ++j) {
            const double r = pearson(columns[i], columns[j]);
            corr(i, j) = r;
            corr(j, i) = r;
        }
    }
    return corr;
}

Matrix
standardizeColumns(const Matrix &data)
{
    Matrix out(data.rows(), data.cols());
    const auto means = columnMeans(data);
    const auto devs = columnStddevs(data);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        for (std::size_t c = 0; c < data.cols(); ++c) {
            out(r, c) = devs[c] > 0.0
                ? (data(r, c) - means[c]) / devs[c]
                : 0.0;
        }
    }
    return out;
}

} // namespace netchar::stats
