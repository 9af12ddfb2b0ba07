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
// work and re-plan the unstarted set against base_ready_times(), through
// the incremental sched::BatchEngine epoch interface:
//
//   batch_min_min   smallest best completion time first.
//   batch_max_min   largest best completion time first.
//   batch_sufferage largest (second-best - best) completion time first.
//
// A re-plan assigns only the part of the plan the engine's next dispatch
// can read — one queue head per idle core — and hands the rest, held
// commits and suspended plan alike, to Engine::defer(); with no idle
// core it assigns nothing and does not even open the epoch. The engine
// commits that rest just before anything but dispatch reads a queue (a
// migration landing, a tick's controllers, set_sleep()), and the next
// re-plan's recall drops it unread. Their traces are nevertheless
// bit-identical to a cold O(U^2 M) re-plan of the same policy
// (reference/cold_batch.hpp; the `sim_equiv` label asserts it),
// extending the sched_equiv discipline into the simulator. Since the
// rest lives in the engine, a decorator that forwards the four callbacks
// reproduces every run; one that then reads queue_length() or load_of()
// sees the assigned part of the plan, not the whole one.
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
