// Yardstick for the one-sided Jacobi kernel of linalg/svd.hpp: the
// pre-optimization kernel (three dot products per column pair, strided
// row-major access). For equivalence tests and before/after benchmarks
// only; the library itself ships one Jacobi kernel.
#pragma once

#include <vector>

#include "linalg/svd.hpp"

namespace hetero::linalg {

/// Singular values, sorted descending, via the pre-optimization kernel.
/// Same validation and result contract as singular_values().
std::vector<double> singular_values_reference(const Matrix& a,
                                              const SvdOptions& options = {});

}  // namespace hetero::linalg
