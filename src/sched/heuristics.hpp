// Classic static-mapping heuristics for independent tasks (Braun et al. [6]).
//
//  OLB        — assign each task (arrival order) to the machine that becomes
//               available earliest, ignoring execution time.
//  MET        — assign each task to its minimum-execution-time machine,
//               ignoring machine availability.
//  MCT        — assign each task (arrival order) to the machine giving the
//               minimum completion time.
//  Min-Min    — repeatedly map the unmapped task whose best completion time
//               is smallest, to that machine.
//  Max-Min    — repeatedly map the unmapped task whose best completion time
//               is largest, to that machine.
//  Sufferage  — repeatedly map the task that would "suffer" most (largest
//               gap between best and second-best completion time).
//  Duplex     — the better of Min-Min and Max-Min.
//
// All heuristics treat an infinite ETC entry as "machine cannot run the
// task" and never assign to it (the EtcMatrix invariant guarantees each
// task has at least one finite entry).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "etcgen/rng.hpp"
#include "sched/makespan.hpp"

namespace hetero::sched {

Assignment map_olb(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_met(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_mct(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_min_min(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_max_min(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_sufferage(const core::EtcMatrix& etc, const TaskList& tasks);
Assignment map_duplex(const core::EtcMatrix& etc, const TaskList& tasks);

/// OLB pick over raw values: the earliest-available (lowest current load)
/// machine with a finite ETC entry for task `t`. Throws ValueError when the
/// task runs on no machine — the EtcMatrix invariant normally rules that
/// out, but the guard replaces a latent out-of-bounds write (the old code
/// indexed load[machine_count()]) for raw-matrix callers.
std::size_t olb_earliest_capable(const linalg::Matrix& etc,
                                 const std::vector<double>& load,
                                 std::size_t t);

/// MET pick over raw values: the minimum-execution-time machine for task
/// `t`. Throws ValueError when the task runs on no machine.
std::size_t met_fastest_machine(const linalg::Matrix& etc, std::size_t t);

/// Uniform random valid assignment (baseline).
Assignment map_random(const core::EtcMatrix& etc, const TaskList& tasks,
                      etcgen::Rng& rng);

/// Registry of the deterministic heuristics, for sweeps and tables.
struct Heuristic {
  std::string name;
  std::function<Assignment(const core::EtcMatrix&, const TaskList&)> map;
};

/// OLB, MET, MCT, Min-Min, Max-Min, Sufferage, Duplex in that order.
const std::vector<Heuristic>& standard_heuristics();

/// Looks up a deterministic heuristic by protocol token ("olb", "met",
/// "mct", "min_min", "max_min", "sufferage", "duplex" — the display names
/// above are also accepted). Returns nullptr for an unknown token. The
/// registry is immutable after first use, so concurrent lookups are safe.
const Heuristic* find_heuristic(std::string_view token);

}  // namespace hetero::sched
