#include "reference/standard_form.hpp"

#include <cmath>
#include <utility>

#include "core/standard_form_internal.hpp"
#include "graph/structure.hpp"

namespace hetero::core {
namespace {

using internal::checked_scale_factor;
using internal::validate_input;
using internal::validate_warm_scale;
using linalg::Matrix;

// Setup of the unfused reference: targets, pattern diagnosis, working copy
// (core-projected when limit_only) and the warm-start seed folded into the
// working matrix and the scale vectors. The library's kernel fuses the
// copy, the seed and the sum priming into one pass with the same
// arithmetic.
void prepare(const Matrix& ecs, const SinkhornOptions& options,
             StandardFormResult& result, Matrix& work) {
  validate_input(ecs);
  validate_warm_scale(options.warm_row_scale, ecs.rows(), "warm_row_scale");
  validate_warm_scale(options.warm_col_scale, ecs.cols(), "warm_col_scale");
  const auto t = static_cast<double>(ecs.rows());
  const auto m = static_cast<double>(ecs.cols());

  result.target_row_sum = std::sqrt(m / t);  // Mk with k = 1/sqrt(TM)
  result.target_col_sum = std::sqrt(t / m);  // Tk
  result.pattern = classify_pattern(ecs);
  result.row_scale.assign(ecs.rows(), 1.0);
  result.col_scale.assign(ecs.cols(), 1.0);

  work = ecs;
  if (result.pattern == NormalizabilityClass::limit_only) {
    // Entries off every positive diagonal decay to zero in the Sinkhorn
    // limit but only at rate O(1/k); dropping them up front leaves the
    // limit unchanged and restores geometric convergence.
    work = *graph::support_core(ecs);
    result.projected_to_core = true;
  }

  if (!options.warm_row_scale.empty() || !options.warm_col_scale.empty()) {
    if (!options.warm_row_scale.empty())
      result.row_scale = options.warm_row_scale;
    if (!options.warm_col_scale.empty())
      result.col_scale = options.warm_col_scale;
    for (std::size_t i = 0; i < work.rows(); ++i) {
      const double ri = result.row_scale[i];
      auto row = work.row(i);
      for (std::size_t j = 0; j < work.cols(); ++j)
        row[j] *= ri * result.col_scale[j];
    }
  }
}

}  // namespace

StandardFormResult standardize_reference(const Matrix& ecs,
                                         const SinkhornOptions& options) {
  StandardFormResult result;
  Matrix work;
  prepare(ecs, options, result, work);

  const auto column_pass = [&] {
    for (std::size_t j = 0; j < work.cols(); ++j) {
      const double f =
          checked_scale_factor(result.target_col_sum, work.col_sum(j));
      work.scale_col(j, f);
      result.col_scale[j] *= f;
    }
  };
  const auto row_pass = [&] {
    for (std::size_t i = 0; i < work.rows(); ++i) {
      const double f =
          checked_scale_factor(result.target_row_sum, work.row_sum(i));
      work.scale_row(i, f);
      result.row_scale[i] *= f;
    }
  };

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (options.row_first) {
      row_pass();
      column_pass();
    } else {
      column_pass();
      row_pass();
    }
    result.iterations = it + 1;
    result.residual = standard_form_residual(work, result.target_row_sum,
                                             result.target_col_sum);
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.standard = std::move(work);
  if (!result.converged && options.throw_on_failure)
    throw ConvergenceError(
        "standardize: Sinkhorn iteration did not reach tolerance (pattern "
        "may be decomposable; see Section VI)");
  return result;
}

}  // namespace hetero::core
