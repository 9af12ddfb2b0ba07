#include "sched/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/error.hpp"
#include "sched/batch_engine.hpp"
#include "sched/heuristics_internal.hpp"
#include "simd/simd.hpp"

namespace hetero::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using internal::best_machine;
using internal::check_tasks;

}  // namespace

std::size_t olb_earliest_capable(const linalg::Matrix& etc,
                                 const std::vector<double>& load,
                                 std::size_t t) {
  // First strict minimum of load over capable machines; incapable entries
  // (infinite ETC) are masked out inside the kernel scan.
  double min_load = kInf;
  std::size_t best = 0;
  simd::kernels().argmin_masked_first(load.data(), etc.row(t).data(),
                                      etc.cols(), &min_load, &best);
  detail::require_value(std::isfinite(min_load),
                        "map_olb: task runs on no machine");
  return best;
}

std::size_t met_fastest_machine(const linalg::Matrix& etc, std::size_t t) {
  double best_e = kInf;
  std::size_t best = 0;
  simd::kernels().argmin_first(etc.row(t).data(), etc.cols(), &best_e, &best);
  detail::require_value(std::isfinite(best_e),
                        "map_met: task runs on no machine");
  return best;
}

Assignment map_olb(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  std::vector<double> load(etc.machine_count(), 0.0);
  Assignment assignment(tasks.size(), 0);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const std::size_t best = olb_earliest_capable(etc.values(), load, tasks[k]);
    assignment[k] = best;
    load[best] += etc(tasks[k], best);
  }
  return assignment;
}

Assignment map_met(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  Assignment assignment(tasks.size(), 0);
  for (std::size_t k = 0; k < tasks.size(); ++k)
    assignment[k] = met_fastest_machine(etc.values(), tasks[k]);
  return assignment;
}

Assignment map_mct(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  std::vector<double> load(etc.machine_count(), 0.0);
  Assignment assignment(tasks.size(), 0);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const std::size_t j = best_machine(etc, load, tasks[k]);
    assignment[k] = j;
    load[j] += etc(tasks[k], j);
  }
  return assignment;
}

Assignment map_min_min(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  return BatchEngine(etc, BatchPolicy::min_min).map_static(tasks);
}

Assignment map_max_min(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  return BatchEngine(etc, BatchPolicy::max_min).map_static(tasks);
}

Assignment map_sufferage(const core::EtcMatrix& etc, const TaskList& tasks) {
  check_tasks(etc, tasks);
  return BatchEngine(etc, BatchPolicy::sufferage).map_static(tasks);
}

Assignment map_duplex(const core::EtcMatrix& etc, const TaskList& tasks) {
  Assignment a = map_min_min(etc, tasks);
  Assignment b = map_max_min(etc, tasks);
  return makespan(etc, tasks, a) <= makespan(etc, tasks, b) ? a : b;
}

Assignment map_random(const core::EtcMatrix& etc, const TaskList& tasks,
                      etcgen::Rng& rng) {
  check_tasks(etc, tasks);
  Assignment assignment(tasks.size(), 0);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    std::size_t j = 0;
    do {
      j = etcgen::uniform_index(rng, etc.machine_count());
    } while (std::isinf(etc(tasks[k], j)));
    assignment[k] = j;
  }
  return assignment;
}

const std::vector<Heuristic>& standard_heuristics() {
  static const std::vector<Heuristic> heuristics = {
      {"OLB", map_olb},           {"MET", map_met},
      {"MCT", map_mct},           {"Min-Min", map_min_min},
      {"Max-Min", map_max_min},   {"Sufferage", map_sufferage},
      {"Duplex", map_duplex},
  };
  return heuristics;
}

const Heuristic* find_heuristic(std::string_view token) {
  static constexpr std::string_view kTokens[] = {
      "olb", "met", "mct", "min_min", "max_min", "sufferage", "duplex"};
  const auto& registry = standard_heuristics();
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (token == kTokens[i] || token == registry[i].name) return &registry[i];
  return nullptr;
}

}  // namespace hetero::sched
