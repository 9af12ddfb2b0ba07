#include "core/measures.hpp"

#include <algorithm>
#include <cmath>

#include "core/performance.hpp"
#include "linalg/rsvd.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/thread_pool.hpp"

namespace hetero::core {
namespace {

// The message is built only on failure: the check runs once per element.
void require_positive(std::span<const double> values, const char* who) {
  const char* problem = nullptr;
  if (values.empty()) {
    problem = ": empty value vector";
  } else if (!std::all_of(values.begin(), values.end(),
                          [](double v) { return v > 0.0; })) {
    problem = ": values must be positive";
  }
  if (problem) throw ValueError(std::string(who).append(problem));
}

// Mean of non-maximum singular values of the standard-form matrix (eq. 8).
// sigma_1 = 1 by Theorem 2, so no division is needed.
double tma_from_standard_singular_values(std::span<const double> sigma) {
  if (sigma.size() <= 1) return 0.0;
  double s = 0.0;
  for (std::size_t i = 1; i < sigma.size(); ++i) s += sigma[i];
  return s / static_cast<double>(sigma.size() - 1);
}

// Eq. 5: mean of sigma_i / sigma_1 over non-maximum singular values.
double tma_from_ratio_singular_values(std::span<const double> sigma) {
  if (sigma.size() <= 1 || sigma.front() == 0.0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 1; i < sigma.size(); ++i) s += sigma[i];
  return s / (sigma.front() * static_cast<double>(sigma.size() - 1));
}

bool wants_blocked_path(const EcsMatrix& ecs, const TmaOptions& options) {
  return options.large.min_elements > 0 &&
         ecs.task_count() * ecs.machine_count() >= options.large.min_elements;
}

// The large-matrix twin of the dense branch in tma_detailed(): tiled
// pool-parallel Sinkhorn, then the full spectrum from the blocked Gram
// route. Same measure definition, different (blocked) numeric path.
TmaResult tma_detailed_blocked(const EcsMatrix& ecs, const Weights& w,
                               const TmaOptions& options) {
  TmaResult result;
  result.used_blocked_path = true;
  par::ThreadPool& pool =
      options.large.pool ? *options.large.pool : par::shared_pool();
  const linalg::BlockedSpectrumOptions spectrum{options.large.gram_block,
                                                &pool};

  result.standard_form =
      standardize_tiled(ecs.weighted_values(w), options.sinkhorn, pool);
  if (result.standard_form.converged) {
    result.singular_values =
        linalg::blocked_singular_values(result.standard_form.standard,
                                        spectrum);
    result.value = tma_from_standard_singular_values(result.singular_values);
    result.used_standard_form = true;
    return result;
  }

  detail::require_value(options.allow_column_normalized_fallback,
                        "tma: no standard form exists for this matrix "
                        "(Section VI) and the eq. 5 fallback is disabled");
  linalg::Matrix cn = ecs.weighted_values(w);
  for (std::size_t j = 0; j < cn.cols(); ++j)
    cn.scale_col(j, 1.0 / cn.col_sum(j));
  result.singular_values = linalg::blocked_singular_values(cn, spectrum);
  result.value = tma_from_ratio_singular_values(result.singular_values);
  result.used_standard_form = false;
  return result;
}

}  // namespace

double adjacent_ratio_homogeneity(std::span<const double> values) {
  require_positive(values, "adjacent_ratio_homogeneity");
  if (values.size() == 1) return 1.0;
  const auto sorted = linalg::sorted_ascending(values);
  return adjacent_ratio_homogeneity_sorted(sorted);
}

double adjacent_ratio_homogeneity_sorted(std::span<const double> ascending) {
  detail::require_value(!ascending.empty() && ascending.front() > 0.0,
                        "adjacent_ratio_homogeneity_sorted: values must be "
                        "positive and sorted ascending");
  if (ascending.size() == 1) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < ascending.size(); ++i)
    acc += ascending[i] / ascending[i + 1];
  return acc / static_cast<double>(ascending.size() - 1);
}

double min_max_ratio(std::span<const double> values) {
  require_positive(values, "min_max_ratio");
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *lo / *hi;
}

double adjacent_ratio_geometric_mean(std::span<const double> values) {
  require_positive(values, "adjacent_ratio_geometric_mean");
  if (values.size() == 1) return 1.0;
  const auto sorted = linalg::sorted_ascending(values);
  std::vector<double> ratios;
  ratios.reserve(sorted.size() - 1);
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i)
    ratios.push_back(sorted[i] / sorted[i + 1]);
  return linalg::geometric_mean(ratios);
}

double value_cov(std::span<const double> values) {
  require_positive(values, "value_cov");
  return linalg::coefficient_of_variation(values);
}

double mph(const EcsMatrix& ecs, const Weights& w) {
  return adjacent_ratio_homogeneity(machine_performances(ecs, w));
}

double tdh(const EcsMatrix& ecs, const Weights& w) {
  return adjacent_ratio_homogeneity(task_difficulties(ecs, w));
}

TmaResult tma_detailed(const EcsMatrix& ecs, const Weights& w,
                       const TmaOptions& options) {
  TmaResult result;
  const std::size_t r = std::min(ecs.task_count(), ecs.machine_count());
  if (r == 1) {
    // A single task type or machine admits no affinity structure: the
    // paper's sum over i >= 2 is empty.
    result.value = 0.0;
    result.singular_values = {1.0};
    return result;
  }

  if (wants_blocked_path(ecs, options))
    return tma_detailed_blocked(ecs, w, options);

  result.standard_form = standardize(ecs, w, options.sinkhorn);
  if (result.standard_form.converged) {
    result.singular_values =
        linalg::singular_values(result.standard_form.standard);
    result.value = tma_from_standard_singular_values(result.singular_values);
    result.used_standard_form = true;
    return result;
  }

  detail::require_value(options.allow_column_normalized_fallback,
                        "tma: no standard form exists for this matrix "
                        "(Section VI) and the eq. 5 fallback is disabled");
  // Eq. 5 fallback: column-normalize only (the procedure of [2]).
  linalg::Matrix cn = ecs.weighted_values(w);
  for (std::size_t j = 0; j < cn.cols(); ++j)
    cn.scale_col(j, 1.0 / cn.col_sum(j));
  result.singular_values = linalg::singular_values(cn);
  result.value = tma_from_ratio_singular_values(result.singular_values);
  result.used_standard_form = false;
  return result;
}

double tma(const EcsMatrix& ecs, const Weights& w) {
  return tma_detailed(ecs, w).value;
}

double tma_column_normalized(const EcsMatrix& ecs, const Weights& w) {
  linalg::Matrix cn = ecs.weighted_values(w);
  if (std::min(cn.rows(), cn.cols()) == 1) return 0.0;
  for (std::size_t j = 0; j < cn.cols(); ++j)
    cn.scale_col(j, 1.0 / cn.col_sum(j));
  return tma_from_ratio_singular_values(linalg::singular_values(cn));
}

MeasureSet measure_set(const EcsMatrix& ecs, const Weights& w) {
  return MeasureSet{mph(ecs, w), tdh(ecs, w), tma(ecs, w)};
}

EnvironmentReport characterize(const EcsMatrix& ecs, const Weights& w,
                               const TmaOptions& options) {
  EnvironmentReport report;
  report.machine_performances = machine_performances(ecs, w);
  report.task_difficulties = task_difficulties(ecs, w);
  report.measures.mph = adjacent_ratio_homogeneity(report.machine_performances);
  report.measures.tdh = adjacent_ratio_homogeneity(report.task_difficulties);
  report.tma_detail = tma_detailed(ecs, w, options);
  report.measures.tma = report.tma_detail.value;
  report.mph_alt_ratio = min_max_ratio(report.machine_performances);
  report.mph_alt_geometric =
      adjacent_ratio_geometric_mean(report.machine_performances);
  report.mph_alt_cov = value_cov(report.machine_performances);
  return report;
}

}  // namespace hetero::core
