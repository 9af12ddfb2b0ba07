// Incremental batch-mode mapping engine shared by the static heuristics
// (Min-Min, Max-Min, Sufferage) and the simulator's batch schedulers.
//
// The classic batch-mode greedy re-evaluates every unmapped task against
// every machine in every round — O(T^2 * M). In the ETC model a row is a
// task *type*: every task of one type has the same runtime on every
// machine, so against one ready vector every such task has the same best
// machine, best and second-best completion times, and priority. This
// engine therefore caches its decision per task type, not per task, and
// plans over *groups*: the distinct types among the registered slots,
// ordered by first registration, each holding its slots in registration
// order. After committing a task to machine j it re-evaluates only the
// groups whose cached decision could involve j (the "affected set" R):
// cost drops toward O(T + G^2 + R*M) for G groups. Cached values come
// from the same left-to-right strict-minimum scan the reference
// implementations use, so assignments — including every tie-break — are
// bit-identical to the O(T^2 * M) twins in heuristics.cpp and
// sim/schedulers.cpp (asserted by the sched_equiv and sim_equiv labels).
//
// Why the tie-break survives grouping: the reference picks the first
// unplanned slot, in registration order, attaining the maximum priority.
// All unplanned slots of one group share that priority, and a group always
// commits its earliest unplanned slot (its head), so the reference's pick
// is the head of the tied group whose head registered first. Each round
// takes the SIMD first-max over group priorities and, when some group
// holds more than one slot, compares head registration indices across
// tied groups.
// When every group is a singleton (a one-of-each static map), group order
// is registration order and the first-max alone is exact.
//
// Why the affected set is sufficient: ready times only grow, and only on
// the committed machine j. A type whose cached best machine is not j keeps
// a valid best (j's completion time was strictly worse, or tied at a higher
// index, and grew); its second-best completion time can change only if j
// attained it, i.e. only if j's pre-commit completion time was <= the
// cached second-best. Both conditions are O(1) per type, and a conservative
// rescan is always exact.
//
// The epoch interface extends the same invariant across the events of the
// arrival simulator: begin_epoch() diffs the new base ready vector against
// the previous epoch's and rescans, once per type with active slots, only
// types whose cached epoch-start entry involves a changed machine, so
// successive remaps warm-start from the previous epoch instead of running
// cold. A type whose last active slot is removed drops its cache (nothing
// revalidates it while it has no slots) and is rescanned when it returns.
//
// A plan is resumable: start_plan() builds the groups and pull() commits
// one round, so a caller that can observe only the first few commits
// (the simulator dispatches at most one head per free core before it
// calls the scheduler again) stops pulling there and resumes, or drops
// the rest, later. The plan is a snapshot of the epoch: slots added or
// removed while it is open change only the next plan, and a new
// begin_epoch() discards it. Stopping after any round and resuming
// therefore yields exactly the commits of an uninterrupted plan().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sched/makespan.hpp"

namespace hetero::sched {

/// Batch-mode priority rule: which unmapped task is "most critical".
enum class BatchPolicy {
  min_min,    // smallest best completion time first
  max_min,    // largest best completion time first
  sufferage,  // largest (second-best - best) completion-time gap first
};

class BatchEngine {
 public:
  /// The engine keeps a reference to `etc`; it must outlive the engine.
  BatchEngine(const core::EtcMatrix& etc, BatchPolicy policy);

  /// One-shot static mapping: slot k runs task type tasks[k], machine loads
  /// start at zero. Bit-identical to the batch_mode greedy of
  /// reference/heuristics.cpp.
  Assignment map_static(const TaskList& tasks);

  // --- incremental epoch interface (arrival-driven batch mode) ---

  /// Registers a task slot (simulator: a task id). Slots are scanned
  /// in registration order, matching the reference's pending-queue order.
  /// Throws ValueError if the slot is already registered.
  void add_slot(std::size_t slot, std::size_t type);

  /// Unregisters a slot (simulator: the task started executing). Throws
  /// ValueError if the slot is not registered.
  void remove_slot(std::size_t slot);

  std::size_t active_count() const noexcept { return active_.size(); }

  /// Starts a planning epoch against `base_ready` (one entry per machine).
  /// Cached epoch-start entries are revalidated against the previous
  /// epoch's base: only types whose decision involves a machine whose ready
  /// time changed are rescanned. Ready times are expected to be
  /// non-decreasing across epochs; a decrease triggers a full (still
  /// correct) rebuild.
  void begin_epoch(const std::vector<double>& base_ready);

  /// One round of a plan: `slot` goes to `machine`.
  struct Commit {
    std::size_t slot = 0;
    std::size_t machine = 0;
  };

  /// Opens a greedy plan of every active slot against the epoch's ready
  /// vector, discarding any unfinished one. Slots stay registered (the
  /// simulator re-plans them until they start). Requires begin_epoch()
  /// first, with no slot of a new type registered since.
  void start_plan();

  /// Commits the open plan's next round; nullopt once every slot of the
  /// plan is committed, or when no plan is open.
  std::optional<Commit> pull();

  /// start_plan(), then commit(slot, machine) for every round, in commit
  /// order.
  void plan(const std::function<void(std::size_t, std::size_t)>& commit);

 private:
  // Recomputes a task type's cached decision against `ready`: the first
  // machine attaining the strict minimum completion time (the reference
  // scan's tie-break) and the second-smallest completion time in multiset
  // order.
  void rescan(std::size_t type, const std::vector<double>& ready,
              double& best_ct, double& second_ct, std::size_t& best_j) const;
  double priority_of(double best_ct, double second_ct) const;
  // Could a cached decision involve machine j, whose ready time was
  // `ready_before` prior to an increase?
  bool involves(std::size_t type, std::size_t j, double ready_before,
                std::size_t best_j, double second_ct) const;
  void rescan_group(std::size_t g);
  // The group whose head the reference scan would pick this round.
  std::size_t pick_group(bool singletons) const;
  void clear_slots();

  const core::EtcMatrix& etc_;
  BatchPolicy policy_;

  // Slot registry. active_ holds slot ids in registration order; the
  // per-slot-id vectors grow to the largest registered id + 1.
  std::vector<std::size_t> active_;
  std::vector<std::uint32_t> slot_type_;
  std::vector<char> slot_active_;

  // Per-type state: the number of active slots, and the epoch-start cache,
  // valid against base_ready_ for every type with active slots and
  // has_base_ set. live_types_ lists the types with active slots, so
  // begin_epoch() visits each once.
  std::vector<std::uint32_t> type_count_;
  std::vector<double> base_best_ct_, base_second_ct_;
  std::vector<std::size_t> base_best_j_;
  std::vector<char> has_base_;
  std::vector<std::uint32_t> live_types_;

  // The open plan's state, one entry per group, as parallel compact
  // arrays so the two hot scans — the priority max-scan (group_prio_ only) and the
  // affected-set filter (group_best_j_ and, for sufferage,
  // group_second_ct_) — each stream one flat vector. group_prio_ mirrors
  // priority_of(best, second) so the max-scan never recomputes the policy
  // switch. A group's unplanned slots are members_[group_head_ ..
  // group_end_), stored as registration indices into plan_slot_ (the
  // snapshot of active_ the commits report). type_group_ maps a type to
  // its group while start_plan() builds the groups and is kNone otherwise.
  std::vector<std::uint32_t> group_type_, group_best_j_;
  std::vector<double> group_prio_, group_second_ct_;
  std::vector<std::uint32_t> group_head_, group_end_;
  std::vector<std::uint32_t> members_, plan_slot_;
  std::vector<std::uint32_t> type_group_;
  // Min-Min/Max-Min affected-set index: bucket_[j] holds the groups whose
  // cached best machine is j, so a commit to j rescans exactly its bucket
  // instead of filtering every group. (Sufferage decisions also depend on
  // the second-best completion time, which buckets cannot capture — it
  // keeps the linear involves() filter.)
  std::vector<std::vector<std::uint32_t>> bucket_;
  std::vector<std::uint32_t> scratch_bucket_;

  std::vector<double> base_ready_;  // previous epoch's base
  std::vector<double> ready_;       // the open plan's working ready vector
  std::vector<std::size_t> changed_;
  bool have_epoch_ = false;
  // The open plan: rounds left to commit (0 = none open), and whether
  // every group is a singleton (pick_group's first-max is then exact).
  std::size_t rounds_left_ = 0;
  bool singletons_ = false;
};

}  // namespace hetero::sched
