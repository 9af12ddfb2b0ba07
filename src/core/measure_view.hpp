// Streaming characterization: MPH/TDH/TMA as a continuously-maintained view.
//
// Production fleets drift — machines join and leave, task types appear, and
// observed runtimes revise ETC entries — yet the paper's measures are global
// functions of the whole ECS matrix. MeasureView keeps them current under a
// stream of deltas without paying a full standardize+SVD recompute per
// change:
//
//   - row and column sums are maintained incrementally (sorted copies
//     resorted by O(n) erase/insert), so MPH/TDH never re-sort;
//   - the TMA standardization is warm-started from the previous Sinkhorn
//     scale vectors (a small perturbation restarts the iteration near its
//     fixed point);
//   - the Gram eigensolve is warm-started from the previous eigenbasis
//     (the congruence is near-diagonal, so Jacobi cleans up in a sweep or
//     two instead of a cold solve).
//
// Every warm update charges a bounded drift increment against a configurable
// error budget; when the accumulated charge would exceed the budget (or a
// hard update-count cap), the view performs an automatic cold refresh —
// recompute everything from scratch — which is bit-identical to
// cold_measures() on the same matrix (the retained equivalence twin,
// verified under the `stream_equiv` ctest label).
//
// The same engine serves the annealing generator of ETC matrices with
// prescribed measures (etcgen::generate_with_measures): propose() evaluates
// a candidate change without committing it, and accept() or reject() settles
// it, so a Metropolis chain pays one warm evaluation per candidate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/measures.hpp"
#include "core/standard_form.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/matrix.hpp"

namespace hetero::core {

/// One entry revision in ECS domain (value must be positive and finite).
struct CellDelta {
  std::size_t task = 0;
  std::size_t machine = 0;
  double value = 0.0;
};

struct MeasureViewOptions {
  /// Budget applied to every TMA standardization; warm-start fields are
  /// managed internally and any caller-provided seeds are ignored.
  SinkhornOptions sinkhorn;
  /// Accumulated warm-update drift allowed before an automatic cold
  /// refresh. Each warm update charges drift_charge(); a budget of
  /// N * drift_charge() therefore allows exactly N warm updates between
  /// refreshes. Non-positive budgets make every update a cold refresh.
  double error_budget = 1e-5;
  /// Hard cap on updates between cold refreshes regardless of budget,
  /// bounding floating-point drift of the incremental sums.
  std::size_t max_updates_between_refresh = 256;
};

/// Online MPH/TDH/TMA view over a held positive ECS matrix.
///
/// All mutators provide the strong exception guarantee: when an update
/// throws (out-of-range index, non-positive value, ScaleOverflowError from
/// a sum driven past the scale guard), the matrix, sums, and published
/// measures are exactly as before the call, and the view remains usable.
///
/// An update is either applied directly (set_entries and the structural
/// mutators) or staged as a proposal: propose() evaluates the view with the
/// deltas applied, and exactly one of accept() (commit, same effect as
/// set_entries) or reject() (restore bit for bit) must follow. While a
/// proposal is open every other mutator throws ValueError.
///
/// Not thread-safe; callers serialize access (the service wraps each
/// session's view in a ranked mutex).
class MeasureView {
 public:
  struct Stats {
    /// Successful update operations applied since construction.
    std::uint64_t version = 0;
    std::uint64_t warm_updates = 0;
    /// Automatic + forced cold refreshes (the initial build is not
    /// counted).
    std::uint64_t cold_refreshes = 0;
    /// Drift charged since the last cold refresh.
    double accumulated_drift = 0.0;
    /// True when the most recent update went through a cold refresh.
    bool last_update_cold = false;
  };

  /// `ecs` must be non-empty, strictly positive, and finite.
  explicit MeasureView(linalg::Matrix ecs, MeasureViewOptions options = {});

  const linalg::Matrix& ecs() const noexcept { return matrix_; }
  const MeasureSet& current() const noexcept { return current_; }
  std::size_t tasks() const noexcept { return matrix_.rows(); }
  std::size_t machines() const noexcept { return matrix_.cols(); }
  const Stats& stats() const noexcept { return stats_; }
  const MeasureViewOptions& options() const noexcept { return options_; }

  /// Revises one cell; equivalent to set_entries of a single delta.
  const MeasureSet& set_entry(std::size_t task, std::size_t machine,
                              double ecs_value);

  /// Applies a batch of cell revisions and re-evaluates once (one drift
  /// charge for the whole batch). Duplicate cells apply in order.
  /// Equivalent to propose(deltas) followed by accept().
  const MeasureSet& set_entries(std::span<const CellDelta> deltas);

  /// Evaluates the view with a non-empty batch of cell revisions applied,
  /// on the path the next update would take: warm, or a cold refresh when
  /// the budget or cap is spent. Until accept() or reject(), ecs() holds the
  /// candidate and current() the committed measures; a cold proposal leaves
  /// the committed warm state untouched. Returns the candidate's measures.
  const MeasureSet& propose(std::span<const CellDelta> deltas);

  /// Commits the open proposal as one update and publishes its measures.
  const MeasureSet& accept();

  /// Discards the open proposal: matrix, sums, warm state, and Stats are
  /// exactly as before propose(), so re-proposing the same deltas
  /// reproduces the same bits.
  void reject();

  /// Appends a task type (row of `machines()` positive finite ECS values).
  const MeasureSet& add_task(std::span<const double> ecs_row);

  /// Appends a machine (column of `tasks()` positive finite ECS values).
  const MeasureSet& add_machine(std::span<const double> ecs_col);

  /// Removes a task type. Throws ValueError when it is the last one.
  const MeasureSet& remove_task(std::size_t task);

  /// Removes a machine. Throws ValueError when it is the last one.
  const MeasureSet& remove_machine(std::size_t machine);

  /// Forced cold refresh: recomputes sums, scalings, eigenbasis, and
  /// measures from scratch and zeroes the accumulated drift. The result is
  /// bit-identical to cold_measures(ecs(), options().sinkhorn).
  const MeasureSet& refresh();

  /// Drift charged per warm update: the Sinkhorn tolerance (a residual of r
  /// perturbs TMA by O(r)) plus the eigensolve tolerance.
  double drift_charge() const noexcept;

  /// The equivalence twin: measures of `ecs` computed from scratch through
  /// the same pipeline a cold refresh uses. A freshly refreshed view
  /// publishes exactly these bits.
  static MeasureSet cold_measures(const linalg::Matrix& ecs,
                                  const SinkhornOptions& sinkhorn = {});

 private:
  // Measures of the current matrix from the maintained sorted sums. Cold
  // starts Sinkhorn unseeded and the eigensolve at the identity (the
  // cold_measures() pipeline); warm seeds both from the committed scalings
  // and eigenbasis. Only reads the committed state: the refined scalings
  // and basis are staged in pending_* for commit().
  MeasureSet evaluate(bool cold);
  // Publishes `s` and adopts the staged scalings and basis; a cold commit
  // also restarts the drift account. Does not touch version counters.
  void commit(const MeasureSet& s, bool cold);
  // Applies `deltas` to the matrix and sums (recomputed from scratch when
  // cold) and evaluates; on a throw restores everything and rethrows.
  MeasureSet stage(std::span<const CellDelta> deltas, bool cold);
  // Undoes the last stage(): restores its cells and the sums before it.
  void unstage();
  // Recomputes row/column sums and their sorted copies from the matrix.
  void reset_sums();
  // Records one successful update: charges drift or counts the cold
  // refresh, and bumps counters.
  const MeasureSet& finish_update(bool cold);
  // True when the next update must take the cold path.
  bool next_update_cold() const noexcept;
  // Throws ValueError while a proposal is open.
  void require_no_proposal() const;
  // Shared commit/rollback path for add/remove task/machine. `row_side`
  // selects which warm scale vector gains (`erase` false, seeded with
  // `seed`) or loses (`erase` true, at `index`) an entry.
  const MeasureSet& apply_structural(linalg::Matrix next, bool row_side,
                                     double seed, bool erase,
                                     std::size_t index);

  linalg::Matrix matrix_;
  MeasureViewOptions options_;
  SinkhornOptions sinkhorn_;
  std::vector<double> row_sums_, col_sums_;
  std::vector<double> sorted_row_sums_, sorted_col_sums_;
  std::vector<double> warm_row_scale_, warm_col_scale_;
  std::vector<double> pending_row_scale_, pending_col_scale_;
  StandardFormResult sf_;
  linalg::Matrix gram_;
  std::vector<double> eig_;
  linalg::Matrix eigbasis_, pending_eigbasis_;
  linalg::WarmEigenWorkspace eig_ws_;
  MeasureSet current_{};
  Stats stats_{};
  std::size_t updates_since_refresh_ = 0;
  // The open proposal: its measures and whether it took the cold path.
  bool proposal_open_ = false;
  bool proposal_cold_ = false;
  MeasureSet proposed_{};
  // Rollback state of the last stage(): the sums before it and the
  // overwritten cells (with their old values) in application order.
  std::vector<double> saved_row_sums_, saved_col_sums_;
  std::vector<double> saved_sorted_row_sums_, saved_sorted_col_sums_;
  std::vector<CellDelta> saved_cells_;
};

}  // namespace hetero::core
