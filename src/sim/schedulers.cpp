#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "base/error.hpp"
#include "sched/batch_engine.hpp"
#include "simd/simd.hpp"

namespace hetero::sim {

void OnlineScheduler::on_start(Engine&, std::size_t, std::size_t) {}
void OnlineScheduler::on_completion(Engine&, std::size_t, std::size_t) {}
void OnlineScheduler::on_tick(Engine&) {}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// First machine attaining the strict minimum of ready[j] + etc(type, j),
// and the runner-up completion time — the same kernel scan and tie-break
// the sched:: heuristics use.
struct Scan {
  double best_ct = kInf, second_ct = kInf;
  std::size_t best = 0;
};

Scan scan(const core::EtcMatrix& etc, const std::vector<double>& ready,
          std::size_t type) {
  Scan s;
  simd::kernels().best_second_scan(etc.values().row(type).data(),
                                   ready.data(), etc.machine_count(),
                                   &s.best_ct, &s.second_ct, &s.best);
  return s;
}

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

// The batch twins re-plan the whole unstarted set on every arrival and
// completion. Both keep the set in the same *registration order* —
// arrival order, except that a task returned to the pool by a migration
// landing re-registers at the back when the next replan discovers it —
// so the cold reference scan and the BatchEngine's registration-order
// scan break every priority tie identically.
class PendingRegistry {
 public:
  // Appends unstarted tasks not yet registered (ascending id, so fresh
  // arrivals land at the back in arrival order); returns how many.
  std::size_t sync(const std::vector<std::size_t>& unstarted) {
    const std::size_t before = order_.size();
    for (const std::size_t t : unstarted) {
      if (t >= tracked_.size()) tracked_.resize(t + 1, 0);
      if (!tracked_[t]) {
        tracked_[t] = 1;
        order_.push_back(t);
      }
    }
    return order_.size() - before;
  }

  // The task started executing: drops it from the registry, returning
  // whether it was registered.
  bool drop(std::size_t task) {
    if (task >= tracked_.size() || !tracked_[task]) return false;
    tracked_[task] = 0;
    order_.erase(std::find(order_.begin(), order_.end(), task));
    return true;
  }

  const std::vector<std::size_t>& order() const { return order_; }

 private:
  std::vector<std::size_t> order_;
  std::vector<char> tracked_;  // by task id
};

// What the batch twins share: a re-plan on every arrival and completion
// over the registered unstarted set.
class BatchMode : public OnlineScheduler {
 public:
  BatchMode(std::string_view name, sched::BatchPolicy policy)
      : name_(name), policy_(policy) {}

  std::string_view name() const override { return name_; }

  void on_arrival(Engine& engine, std::size_t) override { replan(engine); }
  void on_completion(Engine& engine, std::size_t, std::size_t) override {
    replan(engine);
  }

 protected:
  virtual void replan(Engine& engine) = 0;

  std::string_view name_;
  sched::BatchPolicy policy_;
  PendingRegistry registry_;
};

// Batch-mode replanning, cold reference: every arrival or completion
// recalls all queued-but-unstarted work and re-runs the O(U^2 M)
// batch-mode greedy of sched/heuristics.cpp over the registered pending
// set against base_ready_times(). The equivalence yardstick for the
// BatchEngine-backed adapters below.
class ColdBatch final : public BatchMode {
 public:
  using BatchMode::BatchMode;

  void on_start(Engine&, std::size_t task, std::size_t) override {
    registry_.drop(task);
  }

 private:
  double priority(const Scan& s) const {
    switch (policy_) {
      case sched::BatchPolicy::min_min:
        return -s.best_ct;
      case sched::BatchPolicy::max_min:
        return s.best_ct;
      case sched::BatchPolicy::sufferage:
        return std::isinf(s.second_ct) ? kInf : s.second_ct - s.best_ct;
    }
    return -kInf;
  }

  void replan(Engine& engine) override {
    engine.recall_queued();
    registry_.sync(engine.unstarted());
    const std::vector<std::size_t>& pending = registry_.order();
    if (pending.empty()) return;
    const core::EtcMatrix& etc = engine.etc();
    std::vector<double> ready = engine.base_ready_times();
    std::vector<char> mapped(pending.size(), 0);

    for (std::size_t round = 0; round < pending.size(); ++round) {
      double best_priority = -kInf;
      std::size_t chosen = 0, chosen_j = 0, chosen_type = 0;
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (mapped[k]) continue;
        const std::size_t type = engine.task_class_of(pending[k]);
        const Scan s = scan(etc, ready, type);
        const double p = priority(s);
        if (p > best_priority) {
          best_priority = p;
          chosen = k;
          chosen_j = s.best;
          chosen_type = type;
        }
      }
      engine.assign(pending[chosen], chosen_j);
      ready[chosen_j] += etc(chosen_type, chosen_j);
      mapped[chosen] = 1;
    }
  }
};

// The same batch policies planned through the incremental BatchEngine:
// arrivals register slots, starts unregister them, and each replan is a
// warm epoch (begin_epoch diffs the ready vector and rescans only
// affected slots). Commit order, tie-breaks, and therefore the whole
// event trace match the cold twin bit for bit.
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
    // Mirror the registry's new tail into the planner, in order.
    const std::size_t added = registry_.sync(engine.unstarted());
    const std::vector<std::size_t>& order = registry_.order();
    for (std::size_t k = order.size() - added; k < order.size(); ++k) {
      planner_->add_slot(order[k], engine.task_class_of(order[k]));
    }
    if (planner_->active_count() == 0) return;
    planner_->begin_epoch(engine.base_ready_times());
    planner_->plan([&engine](std::size_t slot, std::size_t machine) {
      engine.assign(slot, machine);
    });
  }

  std::optional<sched::BatchEngine> planner_;
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
    {"min_min", make<ColdBatch, BatchPolicy::min_min>},
    {"max_min", make<ColdBatch, BatchPolicy::max_min>},
    {"sufferage", make<ColdBatch, BatchPolicy::sufferage>},
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
