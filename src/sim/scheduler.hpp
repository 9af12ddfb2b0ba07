// Pluggable online scheduling for the discrete-event engine.
//
// The engine drives a scheduler through four callbacks; the scheduler
// steers through the Engine control surface (assign / migrate /
// set_sleep / set_p_state). Callbacks run synchronously inside event
// handling, so anything the scheduler does is part of the deterministic
// event order.
//
// Shipped schedulers, by token. The immediate modes bind each arrival on
// the spot against ready_times() (queued work included), skipping
// machines that cannot run the task; ties go to the lowest index:
//
//   greedy_mct      minimum completion time (ready + ETC).
//   olb             opportunistic load balancing: earliest ready time,
//                   execution-time blind.
//   met             minimum execution time, availability blind.
//   kpb             k-percent best: MCT over the best kKpbFraction of the
//                   capable machines by ETC (at least one); ties go to
//                   the machine with the smaller ETC.
//   switching       Maheswaran et al.'s Switching Algorithm on the
//                   balance index min/max backlog over all machines (1
//                   when none has backlog): MET once it rises above
//                   kSwitchHigh, MCT once it falls below kSwitchLow, the
//                   previous mode in between.
//
// The batch modes, on every arrival and completion, recall all queued
// work and re-plan the unstarted set against base_ready_times():
//
//   min_min         cold reference, O(U^2 M) greedy: smallest best
//                   completion time first.
//   max_min         largest best completion time first.
//   sufferage       largest (second-best - best) completion time first.
//   batch_min_min   the same three policies planned through the
//   batch_max_min   incremental sched::BatchEngine epoch interface.
//   batch_sufferage Bit-identical traces to their cold twins (the
//                   `sim_equiv` label asserts it), extending the
//                   sched_equiv discipline into the simulator.
//
// Scheduler instances are one-shot and engine-bound, like Engine itself:
// make a fresh one per run.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"

namespace hetero::sim {

/// kpb keeps the best half of the capable machines.
inline constexpr double kKpbFraction = 0.5;
/// switching's balance-index thresholds.
inline constexpr double kSwitchLow = 0.3;
inline constexpr double kSwitchHigh = 0.7;

class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  /// Stable token naming the policy (appears in SimReport::scheduler).
  virtual std::string_view name() const = 0;

  /// A task arrived (id = arrival order) and is pending.
  virtual void on_arrival(Engine& engine, std::size_t task) = 0;
  /// A queued task began executing on `machine`.
  virtual void on_start(Engine& engine, std::size_t task,
                        std::size_t machine);
  /// A task finished on `machine` (core and memory already released).
  virtual void on_completion(Engine& engine, std::size_t task,
                             std::size_t machine);
  /// Periodic tick (SimOptions::tick_period), before the engine-level
  /// controllers run.
  virtual void on_tick(Engine& engine);
};

/// Builds the scheduler named by `token`; throws ValueError on an
/// unknown token (the message lists the valid ones).
std::unique_ptr<OnlineScheduler> make_scheduler(std::string_view token);

/// Every token make_scheduler() accepts, in registry order.
std::vector<std::string_view> scheduler_tokens();

}  // namespace hetero::sim
