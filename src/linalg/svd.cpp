#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/error.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "simd/simd.hpp"

namespace hetero::linalg {
namespace {

// Contiguous column-major working storage for the Jacobi kernel. The Matrix
// type is row-major, so its columns are strided; one-sided Jacobi touches
// nothing but columns, so the rotation loops run on a transposed copy where
// every column is a contiguous span and vectorizes cleanly.
struct ColMajor {
  std::vector<double> data;
  std::size_t rows = 0;

  explicit ColMajor(const Matrix& m) : data(m.rows() * m.cols()), rows(m.rows()) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const auto r = m.row(i);
      for (std::size_t j = 0; j < m.cols(); ++j) data[j * rows + i] = r[j];
    }
  }

  double* col(std::size_t j) noexcept { return data.data() + j * rows; }
  const double* col(std::size_t j) const noexcept {
    return data.data() + j * rows;
  }

  void copy_back(Matrix& m) const {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      auto r = m.row(i);
      for (std::size_t j = 0; j < m.cols(); ++j) r[j] = data[j * rows + i];
    }
  }
};

double dot(const double* a, const double* b, std::size_t n) {
  return simd::kernels().dot(a, b, n);
}

// One-sided Jacobi on the columns of `w` (m x n, m >= n is not required but
// improves behavior; callers transpose when m < n). Rotations are accumulated
// into `v` (n x n). On return the columns of `w` are mutually orthogonal and
// their norms are the singular values.
//
// Squared column norms (the alpha/beta of each rotation) are maintained
// incrementally across rotations via the Jacobi identities
//   alpha' = alpha - t * gamma,   beta' = beta + t * gamma
// (t = tan of the rotation angle), so each (p, q) pair costs one dot product
// (gamma) instead of three. The maintained values accumulate rounding drift
// of order eps per rotation, so they are recomputed exactly at the start of
// every sweep; within a sweep the drift is far below the rotation threshold.
void one_sided_jacobi(Matrix& w, Matrix& v, const SvdOptions& opt) {
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  if (n < 2) return;

  ColMajor cw(w);
  ColMajor cv(v);
  std::vector<double> sqnorm(n);

  // Absolute column-norm floor: rotating an exactly dependent pair leaves a
  // round-off-level residual column whose direction re-correlates with the
  // rest every sweep, so a purely relative threshold never terminates on
  // rank-deficient input. Columns below the floor are flushed to exact
  // zero; this only affects singular values below ~1e-14 * sigma_max, which
  // carry no relative accuracy anyway.
  double max_col2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    sqnorm[j] = dot(cw.col(j), cw.col(j), m);
    max_col2 = std::max(max_col2, sqnorm[j]);
  }
  const double floor2 = max_col2 * 1e-28;

  const auto flush_if_negligible = [&](std::size_t j) {
    const double norm2 = sqnorm[j];
    if (norm2 > floor2 || norm2 == 0.0) return false;
    std::fill_n(cw.col(j), m, 0.0);
    sqnorm[j] = 0.0;
    return true;
  };

  for (std::size_t sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    if (sweep > 0)
      for (std::size_t j = 0; j < n; ++j)
        sqnorm[j] = dot(cw.col(j), cw.col(j), m);

    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        flush_if_negligible(p);
        flush_if_negligible(q);
        const double alpha = sqnorm[p];
        const double beta = sqnorm[q];
        if (alpha == 0.0 || beta == 0.0) continue;
        double* wp = cw.col(p);
        double* wq = cw.col(q);
        const double gamma = dot(wp, wq, m);
        if (std::abs(gamma) <= opt.tol * std::sqrt(alpha * beta)) continue;
        rotated = true;

        // Classical Jacobi rotation zeroing the (p, q) Gram entry.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = std::copysign(
            1.0 / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        const auto& K = simd::kernels();
        K.rotate_pair(wp, wq, m, c, s);
        K.rotate_pair(cv.col(p), cv.col(q), n, c, s);
        sqnorm[p] = std::max(alpha - t * gamma, 0.0);
        sqnorm[q] = beta + t * gamma;
      }
    }
    if (!rotated) {
      cw.copy_back(w);
      cv.copy_back(v);
      return;
    }
  }
  throw ConvergenceError("svd: one-sided Jacobi did not converge");
}

SvdResult svd_tall(const Matrix& a, const SvdOptions& opt) {
  const std::size_t n = a.cols();
  Matrix w = a;
  Matrix v = Matrix::identity(n);
  one_sided_jacobi(w, v, opt);

  // Column norms are the singular values; sort descending.
  std::vector<double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) s += w(i, j) * w(i, j);
    sigma[j] = std::sqrt(s);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return sigma[x] > sigma[y];
  });

  SvdResult r;
  r.singular_values.resize(n);
  r.u = Matrix(w.rows(), n, 0.0);
  r.v = Matrix(n, n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    r.singular_values[k] = sigma[j];
    if (sigma[j] > 0.0) {
      const double inv = 1.0 / sigma[j];
      for (std::size_t i = 0; i < w.rows(); ++i) r.u(i, k) = w(i, j) * inv;
    }
    for (std::size_t i = 0; i < n; ++i) r.v(i, k) = v(i, j);
  }
  return r;
}

}  // namespace

SvdResult svd(const Matrix& a, const SvdOptions& options) {
  detail::require_dims(!a.empty(), "svd: empty matrix");
  detail::require_value(!a.has_nonfinite(), "svd: non-finite entries");
  if (a.rows() >= a.cols()) return svd_tall(a, options);
  // For wide matrices decompose the transpose and swap U and V.
  SvdResult t = svd_tall(a.transposed(), options);
  return SvdResult{std::move(t.v), std::move(t.singular_values),
                   std::move(t.u)};
}

std::vector<double> singular_values(const Matrix& a, const SvdOptions& options) {
  detail::require_dims(!a.empty(), "singular_values: empty matrix");
  detail::require_value(!a.has_nonfinite(),
                        "singular_values: non-finite entries");
  Matrix w = a.rows() >= a.cols() ? a : a.transposed();
  Matrix v = Matrix::identity(w.cols());
  one_sided_jacobi(w, v, options);
  std::vector<double> sigma(w.cols());
  for (std::size_t j = 0; j < w.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) s += w(i, j) * w(i, j);
    sigma[j] = std::sqrt(s);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<>());
  return sigma;
}

std::vector<double> singular_values_gram(const Matrix& a) {
  detail::require_dims(!a.empty(), "singular_values_gram: empty matrix");
  detail::require_value(!a.has_nonfinite(),
                        "singular_values_gram: non-finite entries");
  const Matrix g = a.rows() >= a.cols() ? gram(a) : gram(a.transposed());
  auto sigma = symmetric_eigenvalues(g);  // descending
  for (double& s : sigma) s = std::sqrt(std::max(s, 0.0));
  return sigma;
}

std::size_t numerical_rank(const Matrix& a, double rel_tol) {
  const auto sigma = singular_values(a);
  if (sigma.empty() || sigma.front() == 0.0) return 0;
  const double cutoff = rel_tol * sigma.front();
  return static_cast<std::size_t>(
      std::count_if(sigma.begin(), sigma.end(),
                    [cutoff](double s) { return s > cutoff; }));
}

double spectral_norm(const Matrix& a) { return singular_values(a).front(); }

}  // namespace hetero::linalg
