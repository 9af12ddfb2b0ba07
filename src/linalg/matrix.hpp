// Dense row-major matrix of doubles.
//
// This is the numeric substrate for the whole library. The matrices in scope
// (ETC/ECS matrices, their normalized forms, Gram matrices) are small dense
// rectangular matrices, so a simple contiguous row-major layout with value
// semantics is the right tool; no external linear-algebra dependency is used.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "base/error.hpp"

namespace hetero::linalg {

/// Dense row-major matrix of double with value semantics.
///
/// Indexing is `m(i, j)` with `0 <= i < rows()`, `0 <= j < cols()`.
/// Bounds are checked in debug builds only (operator()); `at(i, j)` always
/// checks. An empty matrix (0x0) is a valid value.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length. Example: Matrix{{1, 2}, {3, 4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a rows x cols matrix from a flat row-major buffer.
  static Matrix from_row_major(std::size_t rows, std::size_t cols,
                               std::span<const double> data);
  /// The same, taking over `data` without a copy.
  static Matrix from_row_major(std::size_t rows, std::size_t cols,
                               std::vector<double>&& data);

  /// The n x n identity matrix.
  static Matrix identity(std::size_t n);

  /// Matrix with the given vector on the diagonal (rectangular allowed via
  /// rows/cols >= diag.size()); defaults to square.
  static Matrix diagonal(std::span<const double> diag);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked element access.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// Contiguous row-major storage.
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// View of row i as a contiguous span.
  std::span<double> row(std::size_t i);
  std::span<const double> row(std::size_t i) const;

  /// Copy of column j (columns are strided, so a copy is returned).
  std::vector<double> col(std::size_t j) const;

  /// Sum of row i / column j.
  double row_sum(std::size_t i) const;
  double col_sum(std::size_t j) const;

  /// All row sums / column sums.
  std::vector<double> row_sums() const;
  std::vector<double> col_sums() const;

  /// Sum of all entries.
  double total() const;

  /// Smallest / largest entry. Throws ValueError on an empty matrix.
  double min() const;
  double max() const;

  /// Transposed copy.
  Matrix transposed() const;

  /// Returns the submatrix selecting `row_idx` rows and `col_idx` columns
  /// in the given order (indices may repeat).
  Matrix submatrix(std::span<const std::size_t> row_idx,
                   std::span<const std::size_t> col_idx) const;

  /// Applies row/column permutations: result(i, j) = (*this)(rp[i], cp[j]).
  Matrix permuted(std::span<const std::size_t> row_perm,
                  std::span<const std::size_t> col_perm) const;

  /// Entrywise map in place.
  template <typename F>
  void transform(F&& f) {
    for (double& x : data_) x = f(x);
  }

  /// Scales row i by s / column j by s, in place.
  void scale_row(std::size_t i, double s);
  void scale_col(std::size_t j, double s);

  /// True if every entry is strictly positive / nonnegative.
  bool all_positive() const;
  bool all_nonnegative() const;

  /// True if any entry is not finite (NaN or +-inf).
  bool has_nonfinite() const;

  /// Count of exactly-zero entries.
  std::size_t zero_count() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  Matrix& operator/=(double s);

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);
Matrix operator/(Matrix a, double s);

/// Matrix product (throws DimensionError on mismatch).
Matrix matmul(const Matrix& a, const Matrix& b);

/// y = A x (throws DimensionError on mismatch).
std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// A^T A, computed without forming the transpose.
Matrix gram(const Matrix& a);

/// Gram matrix of the smaller dimension of `a` (A^T A when tall, A A^T when
/// wide), written into the presized min x min buffer `g`. Allocation-free
/// core of the Gram-path singular value evaluators; `g` must already be
/// min(rows, cols) square (throws DimensionError otherwise).
void min_gram_into(const Matrix& a, Matrix& g);

/// Max over entries of |a - b|. Throws DimensionError on shape mismatch.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// True when the two matrices have equal shape and entries within `tol`.
bool approx_equal(const Matrix& a, const Matrix& b, double tol);

/// Frobenius norm.
double frobenius_norm(const Matrix& a);

/// Streams a human-readable rendering (for debugging and gtest messages).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace hetero::linalg
