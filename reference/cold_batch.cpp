#include "reference/cold_batch.hpp"

#include <cmath>
#include <limits>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "sim/batch_mode.hpp"

namespace hetero::sim::reference {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using internal::BatchMode;
using internal::Scan;
using internal::scan;

// Batch-mode replanning, cold: every arrival or completion recalls all
// queued-but-unstarted work and re-runs the O(U^2 M) batch-mode greedy of
// reference/heuristics.cpp over the registered pending set against
// base_ready_times().
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

// Each policy's plain token, the re-planner's name().
struct Named {
  sched::BatchPolicy policy;
  std::string_view name;
};
constexpr Named kPolicies[] = {{sched::BatchPolicy::min_min, "min_min"},
                               {sched::BatchPolicy::max_min, "max_min"},
                               {sched::BatchPolicy::sufferage, "sufferage"}};

}  // namespace

std::unique_ptr<OnlineScheduler> make_cold_batch(sched::BatchPolicy policy) {
  for (const Named& p : kPolicies) {
    if (p.policy == policy) return std::make_unique<ColdBatch>(p.name, policy);
  }
  throw ValueError("make_cold_batch: unknown batch policy");
}

std::unique_ptr<OnlineScheduler> make_scheduler_or_cold(
    std::string_view token) {
  for (const Named& p : kPolicies) {
    if (p.name == token) return std::make_unique<ColdBatch>(p.name, p.policy);
  }
  return make_scheduler(token);
}

}  // namespace hetero::sim::reference
