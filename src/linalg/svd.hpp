// Singular value decomposition via one-sided Jacobi rotations.
//
// The TMA measure (paper eq. 5 / eq. 8) is defined from the singular values
// of the (column-normalized or standard-form) ECS matrix. ECS matrices are
// small dense rectangular matrices, for which one-sided Jacobi is simple,
// unconditionally convergent, and computes small singular values to high
// relative accuracy — exactly what eq. 8's averaging of *non-maximum*
// singular values needs.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace hetero::linalg {

/// Thin SVD A = U * diag(S) * V^T with singular values sorted descending.
///
/// For an m x n input with r = min(m, n): U is m x r with orthonormal
/// columns (columns for zero singular values are zero-filled), S has r
/// entries, V is n x r with orthonormal columns.
struct SvdResult {
  Matrix u;
  std::vector<double> singular_values;
  Matrix v;
};

struct SvdOptions {
  /// Convergence threshold on the cosine of the angle between column pairs.
  double tol = 1e-13;
  /// Maximum number of sweeps over all column pairs.
  std::size_t max_sweeps = 60;
};

/// Full (thin) SVD. Throws ConvergenceError if the sweep budget is exhausted
/// (does not happen for finite inputs at the default settings).
SvdResult svd(const Matrix& a, const SvdOptions& options = {});

/// Singular values only, sorted descending. Cheaper than svd() because no
/// basis accumulation is required.
std::vector<double> singular_values(const Matrix& a,
                                    const SvdOptions& options = {});

/// Singular values via the eigenvalues of the min-dimension Gram matrix,
/// sorted descending. Costs one min^2 * max Gram build plus a min-sized
/// symmetric Jacobi solve — far cheaper than one-sided Jacobi on the full
/// matrix when one dimension is small. Squaring the condition number halves
/// the attainable accuracy: singular values below ~sqrt(eps) * sigma_max
/// come back with absolute error up to ~1e-8 * sigma_max. Intended for
/// search loops that tolerate that (the annealing energy evaluator); use
/// singular_values() for reported measures.
std::vector<double> singular_values_gram(const Matrix& a);

/// Numerical rank: number of singular values > rel_tol * sigma_max.
std::size_t numerical_rank(const Matrix& a, double rel_tol = 1e-10);

/// 2-norm (largest singular value).
double spectral_norm(const Matrix& a);

}  // namespace hetero::linalg
