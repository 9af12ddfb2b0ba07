#include "etcgen/target_measures.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "core/measure_view.hpp"
#include "core/standard_form.hpp"
#include "linalg/svd.hpp"

namespace hetero::etcgen {
namespace {

using core::MeasureSet;
using linalg::Matrix;

double mean_nonmax_singular_value(std::span<const double> sigma) {
  if (sigma.size() <= 1) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < sigma.size(); ++i) acc += sigma[i];
  return acc / static_cast<double>(sigma.size() - 1);
}

// Sinkhorn budget for reported measures: positive matrices converge
// geometrically, so a modest cap keeps each evaluation cheap.
core::SinkhornOptions energy_sinkhorn() {
  core::SinkhornOptions o;
  o.tolerance = 1e-9;
  o.max_iterations = 500;
  return o;
}


double measure_error(const MeasureSet& a, const TargetMeasures& t) {
  return std::max({std::abs(a.mph - t.mph), std::abs(a.tdh - t.tdh),
                   std::abs(a.tma - t.tma)});
}

void validate(const TargetMeasures& target, const TargetGenOptions& options) {
  hetero::detail::require_value(
      options.tasks > 0 && options.machines > 0,
      "generate_with_measures: need tasks > 0, machines > 0");
  hetero::detail::require_value(
      target.mph > 0.0 && target.mph <= 1.0,
      "generate_with_measures: MPH target must be in (0, 1]");
  hetero::detail::require_value(
      target.tdh > 0.0 && target.tdh <= 1.0,
      "generate_with_measures: TDH target must be in (0, 1]");
  hetero::detail::require_value(
      target.tma >= 0.0 && target.tma < 1.0,
      "generate_with_measures: TMA target must be in [0, 1)");
  hetero::detail::require_value(
      target.tma == 0.0 || (options.tasks >= 2 && options.machines >= 2),
      "generate_with_measures: TMA > 0 needs at least 2 tasks and machines");
  hetero::detail::require_value(
      target.mph == 1.0 || options.machines >= 2,
      "generate_with_measures: MPH < 1 needs at least 2 machines");
  hetero::detail::require_value(
      target.tdh == 1.0 || options.tasks >= 2,
      "generate_with_measures: TDH < 1 needs at least 2 tasks");
  hetero::detail::require_value(options.scale > 0.0,
                                "generate_with_measures: scale must be > 0");
}

struct Attempt {
  Matrix matrix;
  MeasureSet achieved;
  double error = 0.0;
};

Attempt run_restart(const TargetMeasures& target,
                    const TargetGenOptions& options, std::uint64_t seed) {
  Rng rng = make_rng(seed);

  Matrix seed_matrix = rank1_seed(target, options.tasks, options.machines);

  // Inject a cyclic affinity pattern; the boost magnitude grows with the
  // TMA target and is polished by annealing afterwards.
  if (target.tma > 0.0) {
    const double boost = 4.0 * target.tma;
    for (std::size_t i = 0; i < seed_matrix.rows(); ++i)
      for (std::size_t j = 0; j < seed_matrix.cols(); ++j)
        if (i % seed_matrix.cols() == j)
          seed_matrix(i, j) *= 1.0 + boost;
  }
  // Small multiplicative jitter so restarts explore different basins.
  seed_matrix.transform([&](double x) {
    return x * std::exp(normal(rng, 0.0, 0.05));
  });

  AnnealOptions anneal_opts;
  anneal_opts.iterations = options.anneal_iterations;
  anneal_opts.t0 = 0.05;
  anneal_opts.t1 = 1e-7;
  anneal_opts.target_energy = options.tolerance * 0.5;

  // Metropolis loop over single-entry proposals. The view keeps each
  // candidate's measures cheap (no matrix copies, no sort, a warm-started
  // search-grade standardization, and a warm Gram eigensolve), which is what
  // makes the proposal chain thousands of evaluations long at interactive
  // speed. The budget is unlimited, so only the view's update cap forces a
  // cold refresh, bounding drift of the incremental sums.
  core::MeasureViewOptions view_options;
  view_options.sinkhorn = search_sinkhorn_options(options.tolerance);
  view_options.error_budget = std::numeric_limits<double>::infinity();
  core::MeasureView view(std::move(seed_matrix), std::move(view_options));
  double current_e = measure_error(view.current(), target);
  Matrix best = view.ecs();
  double best_e = current_e;

  for (std::size_t it = 0; it < anneal_opts.iterations; ++it) {
    if (best_e <= anneal_opts.target_energy) break;
    const double temp = anneal_temperature(anneal_opts, it);
    // Step size tracks temperature: broad early, fine late.
    const double sigma = 0.02 + 0.5 * std::min(temp, 1.0);
    const std::size_t k = uniform_index(rng, view.ecs().size());
    const core::CellDelta cell{k / view.machines(), k % view.machines(),
                               view.ecs().data()[k] *
                                   std::exp(normal(rng, 0.0, sigma))};
    const double cand_e = measure_error(
        view.propose(std::span<const core::CellDelta>(&cell, 1)), target);
    const double delta = cand_e - current_e;
    if (delta <= 0.0 || uniform(rng, 0.0, 1.0) <
                            std::exp(-delta / std::max(temp, 1e-300))) {
      view.accept();
      current_e = cand_e;
      if (current_e < best_e) {
        best = view.ecs();
        best_e = current_e;
      }
    } else {
      view.reject();
    }
  }

  Attempt a;
  a.achieved = measure_set_raw(best);
  a.error = measure_error(a.achieved, target);
  a.matrix = std::move(best);
  return a;
}

}  // namespace

core::SinkhornOptions search_sinkhorn_options(double generator_tolerance) {
  core::SinkhornOptions o;
  // Proposal energies only need a fraction of the acceptance tolerance:
  // standardize two orders tighter than the generator target, clamped so a
  // loose target never degrades below 1e-4 and a tight one never burns
  // iterations past 1e-8. A Sinkhorn residual of r perturbs TMA by O(r), so
  // the measurement bias stays well under the annealing energy scale; the
  // accepted matrix is always re-measured at full precision for reporting.
  o.tolerance = std::clamp(generator_tolerance * 1e-2, 1e-8, 1e-4);
  o.max_iterations = 500;
  return o;
}

MeasureSet measure_set_raw(const Matrix& ecs) {
  MeasureSet s;
  s.mph = core::adjacent_ratio_homogeneity(ecs.col_sums());
  s.tdh = core::adjacent_ratio_homogeneity(ecs.row_sums());
  const std::size_t r = std::min(ecs.rows(), ecs.cols());
  if (r == 1) {
    s.tma = 0.0;
    return s;
  }
  const auto sf = core::standardize(ecs, energy_sinkhorn());
  s.tma = mean_nonmax_singular_value(linalg::singular_values(sf.standard));
  return s;
}

Matrix rank1_seed(const TargetMeasures& target, std::size_t tasks,
                  std::size_t machines) {
  // Geometric profiles: adjacent ratios all equal the homogeneity target,
  // so the adjacent-ratio average equals it exactly; the outer product is
  // rank 1, so TMA = 0.
  std::vector<double> row_factor(tasks), col_factor(machines);
  for (std::size_t i = 0; i < tasks; ++i)
    row_factor[i] = std::pow(std::max(target.tdh, 1e-6),
                             static_cast<double>(tasks - 1 - i));
  for (std::size_t j = 0; j < machines; ++j)
    col_factor[j] = std::pow(std::max(target.mph, 1e-6),
                             static_cast<double>(machines - 1 - j));
  Matrix m(tasks, machines);
  for (std::size_t i = 0; i < tasks; ++i)
    for (std::size_t j = 0; j < machines; ++j)
      m(i, j) = row_factor[i] * col_factor[j];
  return m;
}

TargetGenResult generate_with_measures(const TargetMeasures& target,
                                       const TargetGenOptions& options) {
  validate(target, options);

  std::vector<Attempt> attempts(std::max<std::size_t>(1, options.restarts));
  const auto run = [&](std::size_t r) {
    attempts[r] = run_restart(target, options,
                              options.seed + 0x9e3779b97f4a7c15ULL * (r + 1));
  };
  if (options.pool != nullptr && attempts.size() > 1) {
    par::parallel_for(*options.pool, 0, attempts.size(), run);
  } else {
    for (std::size_t r = 0; r < attempts.size(); ++r) run(r);
  }

  auto best = std::min_element(
      attempts.begin(), attempts.end(),
      [](const Attempt& a, const Attempt& b) { return a.error < b.error; });
  if (best->error > options.tolerance)
    throw ConvergenceError(
        "generate_with_measures: no restart reached the tolerance (best "
        "error " +
        std::to_string(best->error) + ")");

  Matrix scaled = best->matrix;
  // Normalize the mean entry to `scale` (scale invariance of the measures).
  scaled *= options.scale * static_cast<double>(scaled.size()) /
            scaled.total();
  TargetGenResult result{core::EcsMatrix(std::move(scaled)), best->achieved,
                         best->error};
  return result;
}

}  // namespace hetero::etcgen
