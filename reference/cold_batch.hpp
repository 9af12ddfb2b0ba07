// Yardstick for the simulator's batch_* schedulers (sim/scheduler.hpp):
// the cold re-planner, which recalls all queued work on every arrival and
// completion and re-runs the O(U^2 M) batch-mode greedy from scratch. The
// BatchEngine-backed tokens must reproduce its event traces bit for bit
// (the `sim_equiv` label). It commits every plan in full, so it is also
// the twin that shows the tokens' partial commits are unobservable. For equivalence tests and before/after
// benchmarks only; it is not a make_scheduler() token.
#pragma once

#include <memory>
#include <string_view>

#include "sched/batch_engine.hpp"
#include "sim/scheduler.hpp"

namespace hetero::sim::reference {

/// A fresh cold re-planner for `policy`. Its name() (and so
/// SimReport::scheduler) is the policy's plain token: "min_min",
/// "max_min" or "sufferage".
std::unique_ptr<OnlineScheduler> make_cold_batch(sched::BatchPolicy policy);

/// make_scheduler(token), except that the plain policy tokens "min_min",
/// "max_min" and "sufferage" build the cold re-planner: what the
/// equivalence tests and before/after benchmarks select schedulers by.
std::unique_ptr<OnlineScheduler> make_scheduler_or_cold(
    std::string_view token);

}  // namespace hetero::sim::reference
