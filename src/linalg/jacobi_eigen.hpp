// Symmetric eigensolver via classical (two-sided) Jacobi rotations.
//
// Used as an independent cross-check of the SVD: the squared singular values
// of A must equal the eigenvalues of A^T A. Also generally useful for
// spectral analysis of Gram matrices of ECS columns (column correlation, the
// quantity TMA abstracts).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace hetero::linalg {

/// Eigendecomposition A = V * diag(values) * V^T of a symmetric matrix,
/// eigenvalues sorted descending; V columns are the eigenvectors.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;
};

struct JacobiEigenOptions {
  /// Stop when the largest off-diagonal magnitude falls below
  /// tol * frobenius_norm(A).
  double tol = 1e-13;
  std::size_t max_sweeps = 60;
};

/// Eigendecomposition of a symmetric matrix. Throws ValueError if the input
/// is not square or not symmetric (to 1e-10 relative), ConvergenceError on
/// sweep exhaustion.
EigenResult jacobi_eigen(const Matrix& a, const JacobiEigenOptions& options = {});

/// Eigenvalues only, sorted descending.
std::vector<double> symmetric_eigenvalues(const Matrix& a,
                                          const JacobiEigenOptions& options = {});

/// Allocation-free eigenvalues for hot loops: diagonalizes `a` IN PLACE (no
/// eigenvector accumulation, `a` is destroyed) and fills `values` with the
/// eigenvalues sorted descending, reusing its capacity. Same rotations,
/// convergence rule, and results as symmetric_eigenvalues(), but symmetry
/// of `a` is the caller's responsibility (only squareness is checked).
void symmetric_eigenvalues_into(Matrix& a, std::vector<double>& values,
                                const JacobiEigenOptions& options = {});

/// Scratch buffers for symmetric_eigenvalues_warm; reuse one instance across
/// calls to keep the hot path allocation-free.
struct WarmEigenWorkspace {
  Matrix congruence;
  /// A * basis while the congruence is formed, then basis^T during the
  /// sweeps (so basis rotations run over contiguous rows).
  Matrix product;
};

/// Warm-started eigenvalues for slowly-drifting matrices (proposal chains).
/// `basis` must be an orthogonal matrix whose columns approximately
/// diagonalize `a` — typically the eigenbasis of a nearby matrix, or the
/// identity for a cold start. Forms B = basis^T a basis (an exact orthogonal
/// similarity, so the spectrum is untouched), finishes diagonalizing B with
/// Jacobi sweeps — one or two when the basis is close — applies the same
/// rotations to `basis` so it exits as an eigenbasis of `a`, and fills
/// `values` with the eigenvalues sorted descending. `a` is read-only.
/// Symmetry of `a` and orthogonality of `basis` are the caller's
/// responsibility (only shapes are checked).
void symmetric_eigenvalues_warm(const Matrix& a, Matrix& basis,
                                std::vector<double>& values,
                                WarmEigenWorkspace& workspace,
                                const JacobiEigenOptions& options = {});

}  // namespace hetero::linalg
