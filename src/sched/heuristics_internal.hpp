// Helpers shared by the static-mapping heuristics (sched/heuristics.cpp)
// and the batch-mode yardsticks (reference/heuristics.cpp). Not part of
// the public API: both sides must validate and pick machines identically,
// tie-breaks included, for their bit-identity contract to hold.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "base/error.hpp"
#include "core/etc_matrix.hpp"
#include "sched/makespan.hpp"
#include "simd/simd.hpp"

namespace hetero::sched::internal {

inline void check_tasks(const core::EtcMatrix& etc, const TaskList& tasks) {
  for (std::size_t t : tasks)
    detail::require_dims(t < etc.task_count(),
                         "heuristic: task index out of range");
}

// Machine minimizing completion time load[j] + etc(t, j); infinite entries
// yield infinite completion times, which never win the strict scan (every
// task has a finite entry by invariant).
inline std::size_t best_machine(const core::EtcMatrix& etc,
                                const std::vector<double>& load,
                                std::size_t t) {
  double best_ct = std::numeric_limits<double>::infinity();
  double second_ct = best_ct;
  std::size_t best = 0;
  simd::kernels().best_second_scan(etc.values().row(t).data(), load.data(),
                                   etc.machine_count(), &best_ct, &second_ct,
                                   &best);
  return best;
}

}  // namespace hetero::sched::internal
