#include "util/matrix.h"

#include <cmath>

#include "util/check.h"

namespace ps360::util {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    PS360_CHECK_MSG(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  PS360_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  PS360_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  PS360_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  PS360_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - other.data_[i];
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  PS360_CHECK_MSG(cols_ == other.rows_, "matrix product dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  }
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * scalar;
  return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  PS360_CHECK(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * v[c];
  return out;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  PS360_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double max = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    max = std::max(max, std::fabs(data_[i] - other.data_[i]));
  return max;
}

Matrix cholesky(const Matrix& a) {
  PS360_CHECK_MSG(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        PS360_CHECK_MSG(sum > 0.0, "matrix is not positive definite");
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b) {
  PS360_CHECK(a.rows() == b.size());
  const Matrix l = cholesky(a);
  const std::size_t n = a.rows();
  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

std::vector<double> ridge_solve(const Matrix& x, const std::vector<double>& y,
                                double lambda) {
  PS360_CHECK(lambda >= 0.0);
  return ridge_solve(x, y, std::vector<double>(x.cols(), lambda));
}

std::vector<double> ridge_solve(const Matrix& x, const std::vector<double>& y,
                                const std::vector<double>& lambdas) {
  PS360_CHECK(x.rows() == y.size());
  PS360_CHECK(lambdas.size() == x.cols());
  for (double l : lambdas) PS360_CHECK(l >= 0.0);
  const Matrix xt = x.transposed();
  Matrix normal = xt * x;
  for (std::size_t i = 0; i < normal.rows(); ++i) normal(i, i) += lambdas[i];
  const std::vector<double> rhs = xt * y;
  return cholesky_solve(normal, rhs);
}

SmallRidge::SmallRidge(std::size_t terms) : terms_(terms) {
  PS360_CHECK(terms >= 1 && terms <= kMaxTerms);
}

void SmallRidge::add_row(const Vec& row) {
  PS360_ASSERT(!factored_);
  // ridge_solve's Xᵀ * X: entry (r, c) sums x(k, r) * x(k, c) over rows k
  // in order, skipping zero x(k, r). Only the lower triangle is read.
  for (std::size_t r = 0; r < terms_; ++r) {
    const double a = row[r];
    if (a == 0.0) continue;
    for (std::size_t c = 0; c <= r; ++c) at(r, c) += a * row[c];
  }
}

void SmallRidge::add_target(const Vec& row, double target, Vec& rhs) const {
  for (std::size_t r = 0; r < terms_; ++r) rhs[r] += row[r] * target;
}

void SmallRidge::factor(const Vec& lambdas) {
  PS360_ASSERT(!factored_);
  for (std::size_t i = 0; i < terms_; ++i) {
    PS360_CHECK(lambdas[i] >= 0.0);
    at(i, i) += lambdas[i];
  }
  // cholesky()'s loop, in place: entry (i, j) is read once, just before L
  // overwrites it.
  for (std::size_t i = 0; i < terms_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= at(i, k) * at(j, k);
      if (i == j) {
        PS360_CHECK_MSG(sum > 0.0, "matrix is not positive definite");
        at(i, j) = std::sqrt(sum);
      } else {
        at(i, j) = sum / at(j, j);
      }
    }
  }
  factored_ = true;
}

SmallRidge::Vec SmallRidge::solve(const Vec& rhs) const {
  PS360_CHECK_MSG(factored_, "SmallRidge::solve before factor()");
  // cholesky_solve's forward then back substitution.
  Vec y{};
  for (std::size_t i = 0; i < terms_; ++i) {
    double sum = rhs[i];
    for (std::size_t k = 0; k < i; ++k) sum -= at(i, k) * y[k];
    y[i] = sum / at(i, i);
  }
  Vec x{};
  for (std::size_t ii = terms_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < terms_; ++k) sum -= at(k, i) * x[k];
    x[i] = sum / at(i, i);
  }
  return x;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  PS360_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace ps360::util
