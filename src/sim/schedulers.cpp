#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "base/error.hpp"
#include "sched/batch_engine.hpp"
#include "sim/batch_mode.hpp"

namespace hetero::sim {

void OnlineScheduler::on_start(Engine&, std::size_t, std::size_t) {}
void OnlineScheduler::on_completion(Engine&, std::size_t, std::size_t) {}
void OnlineScheduler::on_tick(Engine&) {}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using internal::BatchMode;
using internal::scan;

enum class Rule { mct, olb, met, kpb, switching };

// Immediate mode: each arrival is bound on the spot, against
// ready_times(), by one of the rules listed in scheduler.hpp.
class Immediate final : public OnlineScheduler {
 public:
  Immediate(std::string_view name, Rule rule) : name_(name), rule_(rule) {}

  std::string_view name() const override { return name_; }

  void on_arrival(Engine& engine, std::size_t task) override {
    const std::vector<double> ready = engine.ready_times();
    const std::size_t type = engine.task_class_of(task);
    Rule rule = rule_;
    if (rule == Rule::switching) {
      rule = switch_to_met(ready, engine.now()) ? Rule::met : Rule::mct;
    }
    engine.assign(task, rule == Rule::mct
                            ? scan(engine.etc(), ready, type).best
                            : pick(rule, engine.etc().values().row(type),
                                   ready));
  }

 private:
  // The Switching Algorithm's mode after observing the balance index
  // min/max backlog (1 when no machine has backlog).
  bool switch_to_met(const std::vector<double>& ready, double now) {
    double lo = kInf, hi = 0.0;
    for (const double r : ready) {
      lo = std::min(lo, r - now);
      hi = std::max(hi, r - now);
    }
    const double balance = hi == 0.0 ? 1.0 : lo / hi;
    if (balance > kSwitchHigh) in_met_ = true;
    if (balance < kSwitchLow) in_met_ = false;
    return in_met_;
  }

  // First strict minimum of the rule's key over the capable machines
  // (kpb: over the best kKpbFraction of them, in ETC order).
  std::size_t pick(Rule rule, std::span<const double> row,
                   const std::vector<double>& ready) {
    candidates_.clear();
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (std::isfinite(row[j])) candidates_.push_back(j);
    }
    if (rule == Rule::kpb) {
      std::stable_sort(
          candidates_.begin(), candidates_.end(),
          [row](std::size_t x, std::size_t y) { return row[x] < row[y]; });
      candidates_.resize(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 kKpbFraction * static_cast<double>(candidates_.size())))));
    }
    std::size_t best = candidates_.front();
    double best_key = kInf;
    for (const std::size_t j : candidates_) {
      const double key = rule == Rule::olb   ? ready[j]
                         : rule == Rule::met ? row[j]
                                             : ready[j] + row[j];
      if (key < best_key) {
        best_key = key;
        best = j;
      }
    }
    return best;
  }

  std::string_view name_;
  Rule rule_;
  bool in_met_ = false;
  std::vector<std::size_t> candidates_;
};

// The batch policies planned through the incremental BatchEngine:
// arrivals register slots, starts unregister them, and each replan is a
// warm epoch (begin_epoch diffs the ready vector and rescans only
// affected slots). Commit order, tie-breaks, and therefore the whole
// event trace match the cold re-planner (reference/cold_batch.hpp) bit
// for bit.
//
// A replan assigns only what dispatch reads. The engine commits the rest
// of the plan (Engine::defer) before anything else reads a queue, so
// until the next arrival or completion (which replans afresh) dispatch
// is the only reader that matters: an awake machine starts at most one
// head per idle core, and a sleeping or transitioning one (all cores
// idle) tests whether its queue is empty and, once awake, starts at most
// one head per core. So the replan pulls rounds until each machine has
// received one commit per idle core, or the plan ends. A commit to a
// machine whose idle cores are already filled is held, in plan order,
// and the held commits and the suspended plan are deferred as the rest;
// with no idle core the replan does not even open the epoch. Every held
// commit to a machine follows its assigned ones, so committing the rest
// later appends each queue's tail in the order the cold twin assigns it.
class BatchEngineScheduler final : public BatchMode {
 public:
  using BatchMode::BatchMode;

  void on_start(Engine&, std::size_t task, std::size_t) override {
    if (registry_.drop(task)) planner_->remove_slot(task);
  }

 private:
  void replan(Engine& engine) override {
    if (!planner_) planner_.emplace(engine.etc(), policy_);
    engine.recall_queued();
    held_.clear();
    // Mirror the registry's new tail into the planner, in order.
    const std::size_t added = registry_.sync(engine.unstarted());
    const std::vector<std::size_t>& order = registry_.order();
    for (std::size_t k = order.size() - added; k < order.size(); ++k) {
      planner_->add_slot(order[k], engine.task_class_of(order[k]));
    }
    if (planner_->active_count() == 0) return;

    // quota_[j]: commits to machine j that dispatch can read; owed:
    // machines still short of their quota.
    std::size_t owed = 0;
    quota_.resize(engine.machine_count());
    for (std::size_t j = 0; j < quota_.size(); ++j) {
      quota_[j] = engine.idle_cores(j);
      if (quota_[j] > 0) ++owed;
    }
    engine.base_ready_times(base_);
    epoch_open_ = owed > 0;
    if (epoch_open_) {
      planner_->begin_epoch(base_);
      planner_->start_plan();
    }
    while (owed > 0) {
      const auto c = planner_->pull();
      if (!c) break;
      if (quota_[c->machine] == 0) {
        held_.push_back(*c);
      } else {
        engine.assign(c->slot, c->machine);
        if (--quota_[c->machine] == 0) --owed;
      }
    }
    engine.defer([this](Engine& e) { commit_rest(e); });
  }

  // The deferred rest: the held commits, then every round the plan has
  // left, opening the epoch first if the replan did not.
  void commit_rest(Engine& engine) {
    if (!epoch_open_) {
      planner_->begin_epoch(base_);
      planner_->start_plan();
    }
    for (const sched::BatchEngine::Commit& c : held_) {
      engine.assign(c.slot, c.machine);
    }
    held_.clear();
    while (const auto c = planner_->pull()) {
      engine.assign(c->slot, c->machine);
    }
  }

  std::optional<sched::BatchEngine> planner_;
  std::vector<double> base_;  // the replan's epoch base
  bool epoch_open_ = false;   // did the replan open the epoch?
  std::vector<sched::BatchEngine::Commit> held_;
  std::vector<std::size_t> quota_;
};

// The token registry: make_scheduler, scheduler_tokens and the
// unknown-token message all read this one table.
template <class S, auto arg>
std::unique_ptr<OnlineScheduler> make(std::string_view token) {
  return std::make_unique<S>(token, arg);
}

struct Entry {
  std::string_view token;
  std::unique_ptr<OnlineScheduler> (*make)(std::string_view token);
};

using sched::BatchPolicy;
constexpr Entry kRegistry[] = {
    {"greedy_mct", make<Immediate, Rule::mct>},
    {"olb", make<Immediate, Rule::olb>},
    {"met", make<Immediate, Rule::met>},
    {"kpb", make<Immediate, Rule::kpb>},
    {"switching", make<Immediate, Rule::switching>},
    {"batch_min_min", make<BatchEngineScheduler, BatchPolicy::min_min>},
    {"batch_max_min", make<BatchEngineScheduler, BatchPolicy::max_min>},
    {"batch_sufferage", make<BatchEngineScheduler, BatchPolicy::sufferage>},
};

}  // namespace

std::unique_ptr<OnlineScheduler> make_scheduler(std::string_view token) {
  for (const Entry& e : kRegistry) {
    if (e.token == token) return e.make(e.token);
  }
  std::string message = "make_scheduler: unknown scheduler '";
  message.append(token).append("' (valid: ");
  for (const Entry& e : kRegistry) {
    if (&e != kRegistry) message.append(", ");
    message.append(e.token);
  }
  message.append(")");
  throw ValueError(message);
}

std::vector<std::string_view> scheduler_tokens() {
  std::vector<std::string_view> tokens;
  for (const Entry& e : kRegistry) tokens.push_back(e.token);
  return tokens;
}

}  // namespace hetero::sim
