// Pieces shared by the batch-mode schedulers of sim/schedulers.cpp and
// their cold yardstick (reference/cold_batch.cpp). Not part of the public
// API: the two must scan, register and re-plan identically for their
// event traces to match bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <string_view>
#include <vector>

#include "core/etc_matrix.hpp"
#include "sched/batch_engine.hpp"
#include "sim/scheduler.hpp"
#include "simd/simd.hpp"

namespace hetero::sim::internal {

// First machine attaining the strict minimum of ready[j] + etc(type, j),
// and the runner-up completion time — the same kernel scan and tie-break
// the sched:: heuristics use.
struct Scan {
  double best_ct = std::numeric_limits<double>::infinity();
  double second_ct = std::numeric_limits<double>::infinity();
  std::size_t best = 0;
};

inline Scan scan(const core::EtcMatrix& etc,
                 const std::vector<double>& ready, std::size_t type) {
  Scan s;
  simd::kernels().best_second_scan(etc.values().row(type).data(),
                                   ready.data(), etc.machine_count(),
                                   &s.best_ct, &s.second_ct, &s.best);
  return s;
}

// The batch schedulers re-plan the whole unstarted set on every arrival
// and completion (the BatchEngine-backed tokens assign only the part of
// the plan dispatch reads and defer the rest to the engine, which commits
// it when something else reads a queue; sim/schedulers.cpp). The
// BatchEngine-backed tokens and their cold yardstick keep the set in the
// same *registration order* — arrival order, except that a task returned
// to the pool by a migration landing re-registers at the back when the
// next replan discovers it — so the cold scan and the BatchEngine's
// registration-order scan break every priority tie identically.
//
// The owner drops every task that starts, so the registered tasks are
// always a subset of the unstarted ones.
class PendingRegistry {
 public:
  // Appends unstarted tasks not yet registered (ascending id, so fresh
  // arrivals land at the back in arrival order); returns how many.
  std::size_t sync(const std::deque<std::size_t>& unstarted) {
    // A subset of equal size is the whole set; one short, with the back
    // unregistered, lacks exactly that arrival.
    if (unstarted.size() == order_.size()) return 0;
    if (unstarted.size() == order_.size() + 1 &&
        !registered(unstarted.back())) {
      track(unstarted.back());
      return 1;
    }
    const std::size_t before = order_.size();
    for (const std::size_t t : unstarted) {
      if (!registered(t)) track(t);
    }
    return order_.size() - before;
  }

  // The task started executing: drops it from the registry, returning
  // whether it was registered.
  bool drop(std::size_t task) {
    if (!registered(task)) return false;
    tracked_[task] = 0;
    order_.erase(std::find(order_.begin(), order_.end(), task));
    return true;
  }

  const std::vector<std::size_t>& order() const { return order_; }

 private:
  bool registered(std::size_t task) const {
    return task < tracked_.size() && tracked_[task];
  }
  void track(std::size_t task) {
    if (task >= tracked_.size()) tracked_.resize(task + 1, 0);
    tracked_[task] = 1;
    order_.push_back(task);
  }

  std::vector<std::size_t> order_;
  std::vector<char> tracked_;  // by task id
};

// What every batch scheduler shares: a re-plan on every arrival and
// completion over the registered unstarted set. Every re-plan begins
// with a recall, so what a previous plan left queued or deferred is
// dropped, never read.
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

}  // namespace hetero::sim::internal
