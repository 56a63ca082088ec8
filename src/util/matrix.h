// Small dense linear algebra used by the ridge-regression viewport predictor
// (predict::RidgeRegression) and the Gauss-Newton QoE fitter (qoe::QoFitter).
//
// These problems are tiny (at most a few dozen unknowns), so the goal is a
// clear, well-tested implementation, not BLAS performance. Storage is
// row-major. All operations validate dimensions with PS360_CHECK.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace ps360::util {

class Matrix {
 public:
  Matrix() = default;

  // rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  // Construct from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  Matrix transposed() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  // Matrix-vector product; v.size() must equal cols().
  std::vector<double> operator*(const std::vector<double>& v) const;

  // Frobenius norm.
  double frobenius_norm() const;

  // Maximum absolute difference to another matrix of the same shape.
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Cholesky factorisation of a symmetric positive-definite matrix:
// returns lower-triangular L with A = L * L^T. Throws std::invalid_argument
// if A is not square or not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

// Solve A x = b for symmetric positive-definite A via Cholesky.
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

// Solve the regularised normal equations (X^T X + lambda I) w = X^T y.
// This is ridge regression's closed form; lambda >= 0. With lambda == 0 the
// system must be positive definite (i.e. X full column rank).
std::vector<double> ridge_solve(const Matrix& x, const std::vector<double>& y,
                                double lambda);

// Ridge with a per-coefficient penalty (X^T X + diag(lambdas)) w = X^T y —
// the standard way to leave an intercept column unpenalised (lambda 0 for
// that column). lambdas.size() must equal x.cols().
std::vector<double> ridge_solve(const Matrix& x, const std::vector<double>& y,
                                const std::vector<double>& lambdas);

// Ridge regression for at most kMaxTerms unknowns, held on the stack: the
// allocation-free twin of ridge_solve(x, y, lambdas) for hot paths (the
// viewport predictor runs it on every segment). Feed the design matrix one
// row at a time; XᵀX is formed once and serves any number of target series,
// whose Xᵀy sums the caller accumulates with add_target. Then factor() once
// and solve() per series. Every sum runs in ridge_solve's order, so the
// weights are bit-identical to it.
class SmallRidge {
 public:
  static constexpr std::size_t kMaxTerms = 5;
  using Vec = std::array<double, kMaxTerms>;

  explicit SmallRidge(std::size_t terms);

  // XᵀX += row rowᵀ (the first terms() entries of `row`).
  void add_row(const Vec& row);
  // rhs += row * target: one sample's term of Xᵀy.
  void add_target(const Vec& row, double target, Vec& rhs) const;

  // Cholesky-factor XᵀX + diag(lambdas) in place. Call once, after the
  // last add_row. Throws std::invalid_argument if a lambda is negative or
  // the system is not positive definite, as ridge_solve does.
  void factor(const Vec& lambdas);

  // The weights w solving (XᵀX + diag(lambdas)) w = rhs. Requires factor().
  Vec solve(const Vec& rhs) const;

 private:
  double& at(std::size_t r, std::size_t c) { return a_[r * kMaxTerms + c]; }
  double at(std::size_t r, std::size_t c) const { return a_[r * kMaxTerms + c]; }

  std::size_t terms_;
  bool factored_ = false;
  // Lower triangle of XᵀX; of its Cholesky factor L after factor().
  std::array<double, kMaxTerms * kMaxTerms> a_{};
};

// Vector helpers shared by the solvers.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm2(const std::vector<double>& a);

}  // namespace ps360::util
