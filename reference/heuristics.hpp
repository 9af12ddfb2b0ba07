// Yardsticks for the batch-mode heuristics of sched/heuristics.hpp: the
// pre-optimization O(T^2 * M) Min-Min, Max-Min and Sufferage. The library
// plans all three through the incremental sched::BatchEngine, which must
// produce bit-identical assignments, tie-breaks included (asserted by the
// `sched_equiv` test label; measured by bench/perf_heuristics). For
// equivalence tests and before/after benchmarks only.
#pragma once

#include "sched/heuristics.hpp"

namespace hetero::sched {

Assignment map_min_min_reference(const core::EtcMatrix& etc,
                                 const TaskList& tasks);
Assignment map_max_min_reference(const core::EtcMatrix& etc,
                                 const TaskList& tasks);
Assignment map_sufferage_reference(const core::EtcMatrix& etc,
                                   const TaskList& tasks);

}  // namespace hetero::sched
