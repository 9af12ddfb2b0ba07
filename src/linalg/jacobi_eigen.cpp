#include "linalg/jacobi_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "base/error.hpp"
#include "simd/simd.hpp"

namespace hetero::linalg {
namespace {

// Largest |a(i, j)| above the diagonal: each row's off-diagonal tail is
// contiguous, so the scan is one reduce_max_abs per row.
double max_offdiag_abs(const Matrix& a) {
  const std::size_t n = a.rows();
  const auto& K = simd::kernels();
  double off = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i)
    off = std::max(off, K.reduce_max_abs(a.row(i).data() + i + 1, n - i - 1));
  return off;
}

// out = in^T for square matrices of equal size.
void transpose_into(const Matrix& in, Matrix& out) {
  const std::size_t n = in.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out(j, i) = in(i, j);
}

void check_symmetric(const Matrix& a) {
  detail::require_value(a.rows() == a.cols(), "jacobi_eigen: not square");
  double scale = std::max(1.0, frobenius_norm(a));
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j)
      detail::require_value(std::abs(a(i, j) - a(j, i)) <= 1e-10 * scale,
                            "jacobi_eigen: not symmetric");
}

}  // namespace

EigenResult jacobi_eigen(const Matrix& a, const JacobiEigenOptions& opt) {
  check_symmetric(a);
  const std::size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::identity(n);
  const double stop = opt.tol * std::max(frobenius_norm(a), 1e-300);

  for (std::size_t sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    const double off = max_offdiag_abs(d);
    if (off <= stop) {
      EigenResult r;
      r.values.resize(n);
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t x, std::size_t y) {
                         return d(x, x) > d(y, y);
                       });
      r.vectors = Matrix(n, n, 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        r.values[k] = d(order[k], order[k]);
        for (std::size_t i = 0; i < n; ++i) r.vectors(i, k) = v(i, order[k]);
      }
      return r;
    }

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) <= stop * 1e-3) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(1.0 + theta * theta)), theta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        // Columns are strided in the row-major storage, so the (·, p)/(·, q)
        // updates stay scalar; the row updates are contiguous rotate_pairs.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        simd::kernels().rotate_pair(d.row(p).data(), d.row(q).data(), n, c, s);
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  throw ConvergenceError("jacobi_eigen: did not converge");
}

std::vector<double> symmetric_eigenvalues(const Matrix& a,
                                          const JacobiEigenOptions& options) {
  check_symmetric(a);
  Matrix d = a;
  std::vector<double> values;
  symmetric_eigenvalues_into(d, values, options);
  return values;
}

void symmetric_eigenvalues_into(Matrix& a, std::vector<double>& values,
                                const JacobiEigenOptions& opt) {
  detail::require_value(a.rows() == a.cols(), "jacobi_eigen: not square");
  const std::size_t n = a.rows();
  const double stop = opt.tol * std::max(frobenius_norm(a), 1e-300);

  for (std::size_t sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    const double off = max_offdiag_abs(a);
    if (off <= stop) {
      values.resize(n);
      for (std::size_t i = 0; i < n; ++i) values[i] = a(i, i);
      std::sort(values.begin(), values.end(), std::greater<>());
      return;
    }

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= stop * 1e-3) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(1.0 + theta * theta)), theta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        simd::kernels().rotate_pair(a.row(p).data(), a.row(q).data(), n, c, s);
      }
    }
  }
  throw ConvergenceError("jacobi_eigen: did not converge");
}

void symmetric_eigenvalues_warm(const Matrix& a, Matrix& basis,
                                std::vector<double>& values,
                                WarmEigenWorkspace& ws,
                                const JacobiEigenOptions& opt) {
  detail::require_value(a.rows() == a.cols(), "jacobi_eigen: not square");
  detail::require_value(basis.rows() == a.rows() && basis.cols() == a.cols(),
                        "jacobi_eigen: basis shape mismatch");
  const std::size_t n = a.rows();
  if (ws.product.rows() != n || ws.product.cols() != n) {
    ws.product = Matrix(n, n, 0.0);
    ws.congruence = Matrix(n, n, 0.0);
  } else {
    std::fill(ws.product.data().begin(), ws.product.data().end(), 0.0);
    std::fill(ws.congruence.data().begin(), ws.congruence.data().end(), 0.0);
  }
  Matrix& t = ws.product;
  Matrix& b = ws.congruence;
  const auto& K = simd::kernels();
  // T = A * V with i-k-j loop order: every inner access is row-contiguous,
  // so each inner loop is one axpy over the dispatched kernels.
  for (std::size_t i = 0; i < n; ++i) {
    const auto arow = a.row(i);
    const auto trow = t.row(i);
    for (std::size_t k = 0; k < n; ++k)
      K.axpy(trow.data(), basis.row(k).data(), n, arow[k]);
  }
  // B = V^T * T, k-outer for the same reason.
  for (std::size_t k = 0; k < n; ++k) {
    const auto vrow = basis.row(k);
    const auto trow = t.row(k);
    for (std::size_t i = 0; i < n; ++i)
      K.axpy(b.row(i).data(), trow.data(), n, vrow[i]);
  }
  // B is symmetric in exact arithmetic; average away the rounding skew so
  // the two-sided rotations see a truly symmetric matrix.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double mean = 0.5 * (b(i, j) + b(j, i));
      b(i, j) = mean;
      b(j, i) = mean;
    }

  // T is dead from here on: it holds basis^T, so each basis column
  // rotation below is a contiguous rotate_pair over two rows of T (the
  // same c*x - s*y / s*x + c*y products as the strided column update).
  // The basis is transposed back on the way out, thrown or not.
  Matrix& vt = t;
  transpose_into(basis, vt);
  const double stop = opt.tol * std::max(frobenius_norm(b), 1e-300);
  for (std::size_t sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    const double off = max_offdiag_abs(b);
    if (off <= stop) {
      transpose_into(vt, basis);
      values.resize(n);
      for (std::size_t i = 0; i < n; ++i) values[i] = b(i, i);
      std::sort(values.begin(), values.end(), std::greater<>());
      return;
    }

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double bpq = b(p, q);
        // Entries already below half the stopping threshold cannot block
        // convergence and shift eigenvalues only quadratically below it;
        // skipping them leaves the cleanup sweep touching just the pairs
        // the perturbation actually excited.
        if (std::abs(bpq) <= stop * 0.5) continue;
        const double bpp = b(p, p);
        const double bqq = b(q, q);
        const double theta = (bqq - bpp) / (2.0 * bpq);
        const double tt = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(1.0 + theta * theta)), theta);
        const double c = 1.0 / std::sqrt(1.0 + tt * tt);
        const double s = c * tt;

        for (std::size_t k = 0; k < n; ++k) {
          const double bkp = b(k, p);
          const double bkq = b(k, q);
          b(k, p) = c * bkp - s * bkq;
          b(k, q) = s * bkp + c * bkq;
        }
        K.rotate_pair(b.row(p).data(), b.row(q).data(), n, c, s);
        K.rotate_pair(vt.row(p).data(), vt.row(q).data(), n, c, s);
      }
    }
  }
  transpose_into(vt, basis);
  throw ConvergenceError("jacobi_eigen: did not converge");
}

}  // namespace hetero::linalg
