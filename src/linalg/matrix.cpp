#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>

#include "simd/simd.hpp"

namespace hetero::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  detail::require_dims((rows == 0) == (cols == 0),
                       "Matrix: one dimension is zero but not the other");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    detail::require_dims(r.size() == cols_,
                         "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::from_row_major(std::size_t rows, std::size_t cols,
                              std::span<const double> data) {
  detail::require_dims(data.size() == rows * cols,
                       "from_row_major: buffer size != rows*cols");
  Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.data_.begin());
  return m;
}

Matrix Matrix::from_row_major(std::size_t rows, std::size_t cols,
                              std::vector<double>&& data) {
  detail::require_dims(data.size() == rows * cols,
                       "from_row_major: buffer size != rows*cols");
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> diag) {
  Matrix m(diag.size(), diag.size(), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
  detail::require_dims(i < rows_ && j < cols_, "Matrix::at: index out of range");
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  detail::require_dims(i < rows_ && j < cols_, "Matrix::at: index out of range");
  return (*this)(i, j);
}

std::span<double> Matrix::row(std::size_t i) {
  detail::require_dims(i < rows_, "Matrix::row: index out of range");
  return {data_.data() + i * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t i) const {
  detail::require_dims(i < rows_, "Matrix::row: index out of range");
  return {data_.data() + i * cols_, cols_};
}

std::vector<double> Matrix::col(std::size_t j) const {
  detail::require_dims(j < cols_, "Matrix::col: index out of range");
  std::vector<double> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

double Matrix::row_sum(std::size_t i) const {
  const auto r = row(i);
  return simd::kernels().sum(r.data(), r.size());
}

double Matrix::col_sum(std::size_t j) const {
  detail::require_dims(j < cols_, "Matrix::col_sum: index out of range");
  // A single column is inherently strided; walk it with one running pointer
  // instead of re-deriving i * cols_ + j every step.
  double s = 0.0;
  const double* p = data_.data() + j;
  for (std::size_t i = 0; i < rows_; ++i, p += cols_) s += *p;
  return s;
}

std::vector<double> Matrix::row_sums() const {
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = row_sum(i);
  return out;
}

std::vector<double> Matrix::col_sums() const {
  // One row-major pass scatter-accumulating into the (small, cache-resident)
  // output vector — never traverses a strided column. Per-column additions
  // still happen in ascending row order, so sums are bit-identical to
  // repeated col_sum calls.
  std::vector<double> out(cols_, 0.0);
  const auto& k = simd::kernels();
  for (std::size_t i = 0; i < rows_; ++i)
    k.add_into(data_.data() + i * cols_, out.data(), cols_);
  return out;
}

double Matrix::total() const {
  return simd::kernels().sum(data_.data(), data_.size());
}

double Matrix::min() const {
  detail::require_value(!empty(), "Matrix::min: empty matrix");
  return simd::kernels().reduce_min(data_.data(), data_.size());
}

double Matrix::max() const {
  detail::require_value(!empty(), "Matrix::max: empty matrix");
  return simd::kernels().reduce_max(data_.data(), data_.size());
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Matrix Matrix::submatrix(std::span<const std::size_t> row_idx,
                         std::span<const std::size_t> col_idx) const {
  Matrix s(row_idx.size(), col_idx.size());
  for (std::size_t i = 0; i < row_idx.size(); ++i) {
    detail::require_dims(row_idx[i] < rows_, "submatrix: row index out of range");
    for (std::size_t j = 0; j < col_idx.size(); ++j) {
      detail::require_dims(col_idx[j] < cols_,
                           "submatrix: column index out of range");
      s(i, j) = (*this)(row_idx[i], col_idx[j]);
    }
  }
  return s;
}

Matrix Matrix::permuted(std::span<const std::size_t> row_perm,
                        std::span<const std::size_t> col_perm) const {
  detail::require_dims(row_perm.size() == rows_ && col_perm.size() == cols_,
                       "permuted: permutation size mismatch");
  return submatrix(row_perm, col_perm);
}

void Matrix::scale_row(std::size_t i, double s) {
  const auto r = row(i);
  simd::kernels().scale(r.data(), r.size(), s);
}

void Matrix::scale_col(std::size_t j, double s) {
  detail::require_dims(j < cols_, "scale_col: index out of range");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) *= s;
}

bool Matrix::all_positive() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double x) { return x > 0.0; });
}

bool Matrix::all_nonnegative() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double x) { return x >= 0.0; });
}

bool Matrix::has_nonfinite() const {
  return std::any_of(data_.begin(), data_.end(),
                     [](double x) { return !std::isfinite(x); });
}

std::size_t Matrix::zero_count() const {
  return static_cast<std::size_t>(
      std::count(data_.begin(), data_.end(), 0.0));
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  detail::require_dims(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                       "operator+=: shape mismatch");
  simd::kernels().add_into(rhs.data_.data(), data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  detail::require_dims(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                       "operator-=: shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  simd::kernels().scale(data_.data(), data_.size(), s);
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  detail::require_value(s != 0.0, "operator/=: division by zero");
  return *this *= 1.0 / s;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }
Matrix operator/(Matrix a, double s) { return a /= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  detail::require_dims(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  // ikj loop order: streams through b and c rows contiguously, each row
  // update a single axpy over the dispatched kernels.
  const auto& kn = simd::kernels();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      kn.axpy(ci.data(), b.row(k).data(), b.cols(), aik);
    }
  }
  return c;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  detail::require_dims(a.cols() == x.size(), "matvec: dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  const auto& k = simd::kernels();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto r = a.row(i);
    y[i] = k.dot(r.data(), x.data(), x.size());
  }
  return y;
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols(), 0.0);
  const auto& kn = simd::kernels();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto r = a.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double rki = r[i];
      if (rki == 0.0) continue;
      kn.axpy(&g(i, i), r.data() + i, a.cols() - i, rki);
    }
  }
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

void min_gram_into(const Matrix& a, Matrix& g) {
  const std::size_t n = std::min(a.rows(), a.cols());
  detail::require_dims(g.rows() == n && g.cols() == n,
                       "min_gram_into: buffer must be min-dim square");
  if (a.rows() >= a.cols()) {
    // Register-tiled upper triangle: every entry accumulates its products
    // over the rows in ascending order with unfused multiply-adds, the
    // same bits as a row-by-row rank-1 build on every backend.
    simd::kernels().gram_upper(a.data().data(), a.rows(), n, a.cols(),
                               g.data().data(), g.cols());
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto ri = a.row(i);
      for (std::size_t j = i; j < n; ++j) {
        const auto rj = a.row(j);
        double s = 0.0;
        for (std::size_t k = 0; k < ri.size(); ++k) s += ri[k] * rj[k];
        g(i, j) = s;
        g(j, i) = s;
      }
    }
  }
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  detail::require_dims(a.rows() == b.rows() && a.cols() == b.cols(),
                       "max_abs_diff: shape mismatch");
  double d = 0.0;
  for (std::size_t k = 0; k < a.data().size(); ++k)
    d = std::max(d, std::abs(a.data()[k] - b.data()[k]));
  return d;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return max_abs_diff(a, b) <= tol;
}

double frobenius_norm(const Matrix& a) {
  const double* p = a.data().data();
  return std::sqrt(simd::kernels().dot(p, p, a.data().size()));
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " [");
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << m(i, j) << (j + 1 < m.cols() ? ", " : "");
    os << "]" << (i + 1 < m.rows() ? "\n" : "");
  }
  return os << "]";
}

}  // namespace hetero::linalg
