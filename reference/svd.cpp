#include "reference/svd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "base/error.hpp"

namespace hetero::linalg {
namespace {

// The pre-optimization kernel: three dot products per (p, q) pair, rotations
// applied to the strided row-major columns in place.
void one_sided_jacobi_reference(Matrix& w, Matrix& v, const SvdOptions& opt) {
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  if (n < 2) return;

  double max_col2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < m; ++i) s += w(i, j) * w(i, j);
    max_col2 = std::max(max_col2, s);
  }
  const double floor2 = max_col2 * 1e-28;

  const auto flush_if_negligible = [&](std::size_t j, double norm2) {
    if (norm2 > floor2 || norm2 == 0.0) return false;
    for (std::size_t i = 0; i < m; ++i) w(i, j) = 0.0;
    return true;
  };

  for (std::size_t sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = w(i, p);
          const double wiq = w(i, q);
          alpha += wip * wip;
          beta += wiq * wiq;
          gamma += wip * wiq;
        }
        if (flush_if_negligible(p, alpha)) alpha = 0.0;
        if (flush_if_negligible(q, beta)) beta = 0.0;
        if (alpha == 0.0 || beta == 0.0) continue;
        if (std::abs(gamma) <= opt.tol * std::sqrt(alpha * beta)) continue;
        rotated = true;

        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = std::copysign(
            1.0 / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        for (std::size_t i = 0; i < m; ++i) {
          const double wip = w(i, p);
          const double wiq = w(i, q);
          w(i, p) = c * wip - s * wiq;
          w(i, q) = s * wip + c * wiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    if (!rotated) return;
  }
  throw ConvergenceError("svd: one-sided Jacobi did not converge");
}

}  // namespace

std::vector<double> singular_values_reference(const Matrix& a,
                                              const SvdOptions& options) {
  detail::require_dims(!a.empty(), "singular_values: empty matrix");
  detail::require_value(!a.has_nonfinite(),
                        "singular_values: non-finite entries");
  Matrix w = a.rows() >= a.cols() ? a : a.transposed();
  Matrix v = Matrix::identity(w.cols());
  one_sided_jacobi_reference(w, v, options);
  std::vector<double> sigma(w.cols());
  for (std::size_t j = 0; j < w.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) s += w(i, j) * w(i, j);
    sigma[j] = std::sqrt(s);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<>());
  return sigma;
}

}  // namespace hetero::linalg
