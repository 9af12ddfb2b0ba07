#include "core/svd_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "linalg/rsvd.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/simd.hpp"

namespace hetero::core {
namespace {

// Default mode count for the blocked path when the caller asked for "all":
// every extra mode costs another sketch column through the whole power
// iteration, and the interpretive value of modes past the strongest few is
// nil — analysts wanting more pass max_modes explicitly.
constexpr std::size_t kLargeDefaultModes = 16;

// Blocked twin of the dense analysis below: tiled Sinkhorn, the TMA
// average from the full blocked-Gram spectrum, mode bases and sigmas from
// the randomized top-k SVD (deterministic seeded sketch, so re-running on
// any thread count reproduces the report bitwise).
AffinityAnalysis affinity_analysis_blocked(const EcsMatrix& ecs,
                                           const Weights& w,
                                           std::size_t max_modes,
                                           const SinkhornOptions& options,
                                           const LargePathOptions& large) {
  par::ThreadPool& pool = large.pool ? *large.pool : par::shared_pool();
  const StandardFormResult sf =
      standardize_tiled(ecs.weighted_values(w), options, pool);

  AffinityAnalysis out;
  out.task_names = ecs.task_names();
  out.machine_names = ecs.machine_names();

  const std::vector<double> sigma = linalg::blocked_singular_values(
      sf.standard, {large.gram_block, &pool});
  const std::size_t r = sigma.size();
  const std::size_t mode_count = r > 1 ? r - 1 : 0;
  const std::size_t keep =
      std::min(max_modes == 0 ? kLargeDefaultModes : max_modes, mode_count);

  double sigma_sum = 0.0;
  for (std::size_t k = 1; k < r; ++k) sigma_sum += sigma[k];
  out.tma =
      mode_count == 0 ? 0.0 : sigma_sum / static_cast<double>(mode_count);
  if (keep == 0) return out;

  linalg::RsvdOptions ro;
  ro.rank = keep + 1;  // mode k is singular triplet k + 1
  ro.pool = &pool;
  const linalg::RsvdResult rs = linalg::rsvd(sf.standard, ro);
  const std::size_t have = rs.singular_values.size();
  for (std::size_t k = 1; k < have && k <= keep; ++k) {
    AffinityMode mode;
    mode.sigma = rs.singular_values[k];
    mode.task_component.resize(ecs.task_count());
    for (std::size_t i = 0; i < ecs.task_count(); ++i)
      mode.task_component[i] = rs.u(i, k);
    mode.machine_component.resize(ecs.machine_count());
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      mode.machine_component[j] = rs.v(j, k);
    out.modes.push_back(std::move(mode));
  }
  return out;
}

}  // namespace

AffinityAnalysis affinity_analysis(const EcsMatrix& ecs, const Weights& w,
                                   std::size_t max_modes,
                                   const SinkhornOptions& options,
                                   const LargePathOptions& large) {
  SinkhornOptions opts = options;
  opts.throw_on_failure = true;
  if (large.min_elements > 0 &&
      ecs.task_count() * ecs.machine_count() >= large.min_elements)
    return affinity_analysis_blocked(ecs, w, max_modes, opts, large);

  const StandardFormResult sf = standardize(ecs, w, opts);
  const linalg::SvdResult svd = linalg::svd(sf.standard);

  AffinityAnalysis out;
  out.task_names = ecs.task_names();
  out.machine_names = ecs.machine_names();

  const std::size_t r = svd.singular_values.size();
  const std::size_t mode_count = r > 1 ? r - 1 : 0;
  const std::size_t keep =
      max_modes == 0 ? mode_count : std::min(max_modes, mode_count);

  double sigma_sum = 0.0;
  for (std::size_t k = 1; k < r; ++k) sigma_sum += svd.singular_values[k];
  out.tma = mode_count == 0
                ? 0.0
                : sigma_sum / static_cast<double>(mode_count);

  for (std::size_t k = 1; k <= keep; ++k) {
    AffinityMode mode;
    mode.sigma = svd.singular_values[k];
    mode.task_component.resize(ecs.task_count());
    for (std::size_t i = 0; i < ecs.task_count(); ++i)
      mode.task_component[i] = svd.u(i, k);
    mode.machine_component.resize(ecs.machine_count());
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      mode.machine_component[j] = svd.v(j, k);
    out.modes.push_back(std::move(mode));
  }
  return out;
}

linalg::Matrix machine_column_cosines(const EcsMatrix& ecs, const Weights& w) {
  // One transpose makes every machine a contiguous row, replacing the m
  // strided column copies with direct kernel dot products.
  const linalg::Matrix by_machine = ecs.weighted_values(w).transposed();
  const std::size_t m = by_machine.rows();
  const std::size_t t = by_machine.cols();
  linalg::Matrix cos(m, m, 1.0);
  const auto& K = simd::kernels();
  std::vector<double> norms(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double* r = by_machine.row(j).data();
    norms[j] = std::sqrt(K.dot(r, r, t));
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double* rj = by_machine.row(j).data();
    for (std::size_t k = j + 1; k < m; ++k) {
      const double c =
          K.dot(rj, by_machine.row(k).data(), t) / (norms[j] * norms[k]);
      cos(j, k) = cos(k, j) = c;
    }
  }
  return cos;
}

double max_column_angle(const EcsMatrix& ecs, const Weights& w) {
  const linalg::Matrix cos = machine_column_cosines(ecs, w);
  double min_cos = 1.0;
  for (std::size_t j = 0; j < cos.rows(); ++j)
    for (std::size_t k = j + 1; k < cos.cols(); ++k)
      min_cos = std::min(min_cos, cos(j, k));
  return std::acos(std::clamp(min_cos, -1.0, 1.0));
}

std::string describe_strongest_mode(const AffinityAnalysis& analysis,
                                    std::size_t top_k) {
  if (analysis.modes.empty()) return "no affinity modes (TMA = 0 regime)";
  const AffinityMode& mode = analysis.modes.front();

  // Orient so the largest-magnitude machine component is positive.
  double orient = 1.0;
  double best_mag = 0.0;
  for (double v : mode.machine_component)
    if (std::abs(v) > best_mag) {
      best_mag = std::abs(v);
      orient = v >= 0 ? 1.0 : -1.0;
    }

  const auto top_indices = [&](const std::vector<double>& comp, bool positive) {
    std::vector<std::size_t> idx(comp.size());
    for (std::size_t i = 0; i < comp.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return orient * comp[a] * (positive ? 1 : -1) >
             orient * comp[b] * (positive ? 1 : -1);
    });
    idx.resize(std::min(top_k, idx.size()));
    return idx;
  };

  std::ostringstream os;
  os << "strongest affinity mode (sigma = " << mode.sigma << "): tasks {";
  bool first = true;
  for (std::size_t i : top_indices(mode.task_component, true)) {
    if (orient * mode.task_component[i] <= 0) continue;
    os << (first ? "" : ", ") << analysis.task_names[i];
    first = false;
  }
  os << "} run disproportionately well on machines {";
  first = true;
  for (std::size_t j : top_indices(mode.machine_component, true)) {
    if (orient * mode.machine_component[j] <= 0) continue;
    os << (first ? "" : ", ") << analysis.machine_names[j];
    first = false;
  }
  os << "}";
  return std::move(os).str();
}

}  // namespace hetero::core
