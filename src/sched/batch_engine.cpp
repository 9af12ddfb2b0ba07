#include "sched/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "base/error.hpp"
#include "simd/simd.hpp"

namespace hetero::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::uint32_t kPlanned = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

// First index attaining the maximum of v, with NaN entries skipped (NaN
// compares false). The dispatched kernel runs the 4-lane first-max-wins
// scan this engine introduced (lane k owns index % 4 == k, tail extends
// lane 0, first global attainment = minimum recorded index among lanes
// attaining the maximum) — an exact reassociation of the reference's
// strict `>` scan, now vectorized.
std::size_t argmax_first(const std::vector<double>& v) {
  const std::size_t at = simd::kernels().argmax_first(v.data(), v.size());
  if (at != static_cast<std::size_t>(-1)) return at;
  // Every remaining priority is -inf (tasks with no capable machine —
  // excluded by the EtcMatrix invariant): the strict `>` never fires, so
  // degrade deterministically to the first non-NaN (unplanned) entry.
  std::size_t i = 0;
  while (std::isnan(v[i])) ++i;
  return i;
}

}  // namespace

BatchEngine::BatchEngine(const core::EtcMatrix& etc, BatchPolicy policy)
    : etc_(etc),
      policy_(policy),
      type_count_(etc.task_count(), 0),
      base_best_ct_(etc.task_count(), kInf),
      base_second_ct_(etc.task_count(), kInf),
      base_best_j_(etc.task_count(), 0),
      has_base_(etc.task_count(), 0),
      type_group_(etc.task_count(), kNone),
      base_ready_(etc.machine_count(), 0.0),
      ready_(etc.machine_count(), 0.0) {}

void BatchEngine::rescan(std::size_t type, const std::vector<double>& ready,
                         double& best_ct, double& second_ct,
                         std::size_t& best_j) const {
  // Single fused pass: best machine (first strict minimum, as in the
  // reference scans) and the second-smallest completion time together.
  // Incapable (+inf) entries yield +inf completion times, which lose every
  // strict compare — exactly the reference's skip — so the kernel scan can
  // let them participate and still match bit for bit.
  simd::kernels().best_second_scan(etc_.values().row(type).data(),
                                   ready.data(), etc_.machine_count(),
                                   &best_ct, &second_ct, &best_j);
}

double BatchEngine::priority_of(double best_ct, double second_ct) const {
  switch (policy_) {
    case BatchPolicy::min_min:
      return -best_ct;
    case BatchPolicy::max_min:
      return best_ct;
    case BatchPolicy::sufferage:
      return std::isinf(second_ct) ? kInf : second_ct - best_ct;
  }
  return -kInf;  // unreachable
}

bool BatchEngine::involves(std::size_t type, std::size_t j,
                           double ready_before, std::size_t best_j,
                           double second_ct) const {
  if (best_j == j) return true;
  if (policy_ != BatchPolicy::sufferage) return false;  // only best matters
  // j was not the best, so its completion time sat at or above the cached
  // second-best; it contributed to the decision only when it attained it.
  const double x = etc_(type, j);
  return !std::isinf(x) && ready_before + x <= second_ct;
}

void BatchEngine::rescan_group(std::size_t g) {
  double best_ct = kInf, second_ct = kInf;
  std::size_t best_j = 0;
  rescan(group_type_[g], ready_, best_ct, second_ct, best_j);
  group_best_j_[g] = static_cast<std::uint32_t>(best_j);
  group_second_ct_[g] = second_ct;
  group_prio_[g] = priority_of(best_ct, second_ct);
}

std::size_t BatchEngine::pick_group(bool singletons) const {
  // First-max over groups: exact when every group is a singleton, since
  // group order is then registration order.
  std::size_t g = argmax_first(group_prio_);
  if (singletons) return g;
  // Otherwise a later group tied at the maximum wins if its head slot
  // registered earlier. Exhausted groups carry NaN and never compare equal.
  const double p = group_prio_[g];
  std::uint32_t head = members_[group_head_[g]];
  for (std::size_t h = g + 1; h < group_prio_.size(); ++h) {
    if (group_prio_[h] == p && members_[group_head_[h]] < head) {
      g = h;
      head = members_[group_head_[h]];
    }
  }
  return g;
}

void BatchEngine::add_slot(std::size_t slot, std::size_t type) {
  detail::require_dims(type < etc_.task_count(),
                       "BatchEngine: task type out of range");
  if (slot >= slot_active_.size()) {
    slot_type_.resize(slot + 1, 0);
    slot_active_.resize(slot + 1, 0);
  }
  detail::require_value(!slot_active_[slot],
                        "BatchEngine: slot is already registered");
  slot_active_[slot] = 1;
  slot_type_[slot] = static_cast<std::uint32_t>(type);
  if (type_count_[type]++ == 0) {
    live_types_.push_back(static_cast<std::uint32_t>(type));
  }
  active_.push_back(slot);
}

void BatchEngine::remove_slot(std::size_t slot) {
  detail::require_value(slot < slot_active_.size() && slot_active_[slot],
                        "BatchEngine: removing an unregistered slot");
  slot_active_[slot] = 0;
  active_.erase(std::find(active_.begin(), active_.end(), slot));
  // A type with no active slots is not revalidated by begin_epoch(), so
  // its cache goes stale: drop it.
  const std::size_t type = slot_type_[slot];
  if (--type_count_[type] > 0) return;
  has_base_[type] = 0;
  live_types_.erase(
      std::find(live_types_.begin(), live_types_.end(), type));
}

void BatchEngine::clear_slots() {
  for (const std::size_t s : active_) {
    slot_active_[s] = 0;
    type_count_[slot_type_[s]] = 0;
    has_base_[slot_type_[s]] = 0;
  }
  active_.clear();
  live_types_.clear();
  have_epoch_ = false;
  rounds_left_ = 0;
}

void BatchEngine::begin_epoch(const std::vector<double>& base_ready) {
  detail::require_dims(base_ready.size() == etc_.machine_count(),
                       "BatchEngine: ready vector size mismatch");
  // Diff against the previous epoch's base. Ready times are non-decreasing
  // in the simulator; a decrease (API misuse or a reset) falls back
  // to a full rebuild, which is always correct.
  changed_.clear();
  bool rebuild = !have_epoch_;
  if (!rebuild) {
    for (std::size_t j = 0; j < base_ready.size(); ++j) {
      if (base_ready[j] != base_ready_[j]) {
        changed_.push_back(j);
        if (base_ready[j] < base_ready_[j]) rebuild = true;
      }
    }
  }

  // Revalidate each type with active slots once. Each rescan writes only
  // its own type's cache, so the visiting order does not matter.
  for (const std::size_t t : live_types_) {
    if (rebuild || !has_base_[t]) {
      rescan(t, base_ready, base_best_ct_[t], base_second_ct_[t],
             base_best_j_[t]);
      has_base_[t] = 1;
      continue;
    }
    for (const std::size_t j : changed_) {
      if (involves(t, j, base_ready_[j], base_best_j_[t],
                   base_second_ct_[t])) {
        rescan(t, base_ready, base_best_ct_[t], base_second_ct_[t],
               base_best_j_[t]);
        break;
      }
    }
  }

  base_ready_ = base_ready;
  have_epoch_ = true;
  rounds_left_ = 0;  // an unfinished plan belongs to the previous epoch
}

void BatchEngine::start_plan() {
  rounds_left_ = 0;  // discard the unfinished plan, even if this one throws
  detail::require_value(have_epoch_,
                        "BatchEngine: plan() before begin_epoch()");
  // Build the groups in one pass over the registration order: a type's
  // first slot opens its group, seeded from the epoch-start cache (which
  // stays untouched for the next begin_epoch() diff), and reserves
  // type_count_ member positions for the type's slots.
  const std::size_t n = active_.size();
  plan_slot_.resize(n);
  members_.resize(n);
  group_type_.clear();
  group_best_j_.clear();
  group_second_ct_.clear();
  group_prio_.clear();
  group_head_.clear();
  group_end_.clear();
  std::uint32_t reserved = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = active_[i];
    const std::size_t t = slot_type_[s];
    plan_slot_[i] = static_cast<std::uint32_t>(s);
    std::uint32_t& g = type_group_[t];
    if (g == kNone) {
      g = static_cast<std::uint32_t>(group_type_.size());
      group_type_.push_back(static_cast<std::uint32_t>(t));
      group_best_j_.push_back(static_cast<std::uint32_t>(base_best_j_[t]));
      group_second_ct_.push_back(base_second_ct_[t]);
      group_prio_.push_back(priority_of(base_best_ct_[t], base_second_ct_[t]));
      group_head_.push_back(reserved);
      group_end_.push_back(reserved);
      reserved += type_count_[t];
    }
    members_[group_end_[g]++] = static_cast<std::uint32_t>(i);
  }
  const std::size_t groups = group_type_.size();
  bool cached = true;
  for (const std::uint32_t t : group_type_) {
    type_group_[t] = kNone;
    cached = cached && has_base_[t];
  }
  detail::require_value(cached,
                        "BatchEngine: slot of a new type registered after "
                        "begin_epoch()");
  singletons_ = groups == n;
  ready_ = base_ready_;

  if (policy_ != BatchPolicy::sufferage) {
    bucket_.resize(etc_.machine_count());
    for (auto& b : bucket_) b.clear();
    for (std::size_t g = 0; g < groups; ++g)
      bucket_[group_best_j_[g]].push_back(static_cast<std::uint32_t>(g));
  }
  rounds_left_ = n;
}

std::optional<BatchEngine::Commit> BatchEngine::pull() {
  if (rounds_left_ == 0) return std::nullopt;
  --rounds_left_;
  // Commit the head of the group the reference scan would pick.
  const std::size_t chosen = pick_group(singletons_);
  const std::size_t slot = plan_slot_[members_[group_head_[chosen]++]];
  const std::size_t ctype = group_type_[chosen];
  const std::size_t jstar = group_best_j_[chosen];
  if (group_head_[chosen] == group_end_[chosen]) {
    // Exhausted: NaN/kPlanned sentinels fall through every scan below.
    group_prio_[chosen] = kNan;
    group_second_ct_[chosen] = kNan;
    group_best_j_[chosen] = kPlanned;
  }

  const double before = ready_[jstar];
  ready_[jstar] += etc_(ctype, jstar);

  // Affected-set recomputation: only groups whose cached decision could
  // involve jstar can have changed (the chosen group among them, unless
  // exhausted).
  if (policy_ == BatchPolicy::sufferage) {
    for (std::size_t g = 0; g < group_type_.size(); ++g)
      if (involves(group_type_[g], jstar, before, group_best_j_[g],
                   group_second_ct_[g]))
        rescan_group(g);
  } else {
    // Exactly bucket_[jstar]: rescan each member and rebucket it (its
    // new best may land anywhere, including jstar again).
    scratch_bucket_.swap(bucket_[jstar]);
    bucket_[jstar].clear();
    for (const std::uint32_t g : scratch_bucket_) {
      if (group_best_j_[g] == kPlanned) continue;
      rescan_group(g);
      bucket_[group_best_j_[g]].push_back(g);
    }
    scratch_bucket_.clear();
  }
  return Commit{slot, jstar};
}

void BatchEngine::plan(
    const std::function<void(std::size_t, std::size_t)>& commit) {
  start_plan();
  while (const std::optional<Commit> c = pull()) commit(c->slot, c->machine);
}

Assignment BatchEngine::map_static(const TaskList& tasks) {
  clear_slots();
  for (std::size_t k = 0; k < tasks.size(); ++k) add_slot(k, tasks[k]);
  begin_epoch(std::vector<double>(etc_.machine_count(), 0.0));
  Assignment assignment(tasks.size(), 0);
  plan([&assignment](std::size_t slot, std::size_t j) {
    assignment[slot] = j;
  });
  clear_slots();
  return assignment;
}

}  // namespace hetero::sched
