#include "reference/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sched/heuristics_internal.hpp"

namespace hetero::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using internal::best_machine;
using internal::check_tasks;

// Pre-optimization O(T^2 M) batch-mode skeleton shared by the reference
// twins of Min-Min, Max-Min, and Sufferage: repeatedly pick the "most
// critical" unmapped task per `priority` (higher wins) and commit it to its
// best machine.
template <typename PriorityFn>
Assignment batch_mode(const core::EtcMatrix& etc, const TaskList& tasks,
                      PriorityFn&& priority) {
  std::vector<double> load(etc.machine_count(), 0.0);
  Assignment assignment(tasks.size(), 0);
  std::vector<bool> mapped(tasks.size(), false);

  for (std::size_t round = 0; round < tasks.size(); ++round) {
    double best_priority = -kInf;
    std::size_t chosen = 0;
    std::size_t chosen_machine = 0;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      if (mapped[k]) continue;
      const std::size_t j = best_machine(etc, load, tasks[k]);
      const double p = priority(tasks[k], j, load);
      if (p > best_priority) {
        best_priority = p;
        chosen = k;
        chosen_machine = j;
      }
    }
    assignment[chosen] = chosen_machine;
    load[chosen_machine] += etc(tasks[chosen], chosen_machine);
    mapped[chosen] = true;
  }
  return assignment;
}

}  // namespace

Assignment map_min_min_reference(const core::EtcMatrix& etc,
                                 const TaskList& tasks) {
  check_tasks(etc, tasks);
  return batch_mode(etc, tasks,
                    [&](std::size_t t, std::size_t j,
                        const std::vector<double>& load) {
                      return -(load[j] + etc(t, j));  // smallest CT first
                    });
}

Assignment map_max_min_reference(const core::EtcMatrix& etc,
                                 const TaskList& tasks) {
  check_tasks(etc, tasks);
  return batch_mode(etc, tasks,
                    [&](std::size_t t, std::size_t j,
                        const std::vector<double>& load) {
                      return load[j] + etc(t, j);  // largest CT first
                    });
}

Assignment map_sufferage_reference(const core::EtcMatrix& etc,
                                   const TaskList& tasks) {
  check_tasks(etc, tasks);
  return batch_mode(
      etc, tasks,
      [&](std::size_t t, std::size_t /*best_j*/,
          const std::vector<double>& load) {
        // Sufferage = second-best CT minus best CT.
        double best_ct = kInf, second_ct = kInf;
        for (std::size_t j = 0; j < etc.machine_count(); ++j) {
          if (std::isinf(etc(t, j))) continue;
          const double ct = load[j] + etc(t, j);
          if (ct < best_ct) {
            second_ct = best_ct;
            best_ct = ct;
          } else {
            second_ct = std::min(second_ct, ct);
          }
        }
        return std::isinf(second_ct) ? kInf : second_ct - best_ct;
      });
}

}  // namespace hetero::sched
