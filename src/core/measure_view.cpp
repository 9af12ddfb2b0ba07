#include "core/measure_view.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/error.hpp"

namespace hetero::core {
namespace {

using linalg::Matrix;

// Replaces one occurrence of `old_value` in the sorted vector `v` with
// `new_value`, keeping it sorted: one erase and one shifted insert, O(n)
// moves and no per-update sort.
void replace_sorted(std::vector<double>& v, double old_value,
                    double new_value) {
  v.erase(std::lower_bound(v.begin(), v.end(), old_value));
  v.insert(std::upper_bound(v.begin(), v.end(), new_value), new_value);
}

void require_positive_finite(std::span<const double> values,
                             const char* what) {
  for (double v : values)
    hetero::detail::require_value(v > 0.0 && std::isfinite(v), what);
}

}  // namespace

MeasureView::MeasureView(Matrix ecs, MeasureViewOptions options)
    : matrix_(std::move(ecs)),
      options_(std::move(options)),
      sinkhorn_(options_.sinkhorn) {
  hetero::detail::require_value(
      !matrix_.empty() && matrix_.all_positive() && !matrix_.has_nonfinite(),
      "MeasureView: ECS matrix must be non-empty, strictly positive, and "
      "finite");
  reset_sums();
  commit(evaluate(/*cold=*/true), /*cold=*/true);
}

double MeasureView::drift_charge() const noexcept {
  // A Sinkhorn residual of r perturbs TMA by O(r); the warm eigensolve adds
  // its own 1e-8 off-diagonal tolerance. MPH/TDH incremental-sum drift is
  // orders below either and is covered by the update-count cap.
  return sinkhorn_.tolerance + 1e-8;
}

bool MeasureView::next_update_cold() const noexcept {
  if (options_.error_budget <= 0.0) return true;
  if (updates_since_refresh_ + 1 > options_.max_updates_between_refresh)
    return true;
  return stats_.accumulated_drift + drift_charge() > options_.error_budget;
}

void MeasureView::require_no_proposal() const {
  hetero::detail::require_value(!proposal_open_,
                                "MeasureView: a proposal is open; accept() "
                                "or reject() it first");
}

MeasureSet MeasureView::evaluate(bool cold) {
  MeasureSet s;
  s.mph = adjacent_ratio_homogeneity_sorted(sorted_col_sums_);
  s.tdh = adjacent_ratio_homogeneity_sorted(sorted_row_sums_);
  // A committed basis of another size (the min dimension changed) carries
  // no information; start that solve at the identity as a cold one does.
  const std::size_t mn = std::min(matrix_.rows(), matrix_.cols());
  if (cold || eigbasis_.rows() != mn)
    pending_eigbasis_ = Matrix::identity(mn);
  else
    pending_eigbasis_ = eigbasis_;
  if (mn == 1) {
    s.tma = 0.0;
    pending_row_scale_.clear();
    pending_col_scale_.clear();
    return s;
  }
  // TMA via the allocation-free Gram path: a Sinkhorn standardization
  // (warm: seeded with the committed scalings, so a small perturbation
  // restarts near the fixed point), then a Jacobi eigensolve of the Gram
  // matrix by congruence into the basis above. The congruence is an exact
  // similarity, so a warm basis only saves sweeps; 1e-8 on the
  // off-diagonals bounds the eigenvalue error by ~1e-8.
  if (cold) {
    sinkhorn_.warm_row_scale.clear();
    sinkhorn_.warm_col_scale.clear();
  } else {
    sinkhorn_.warm_row_scale = warm_row_scale_;
    sinkhorn_.warm_col_scale = warm_col_scale_;
  }
  standardize_positive_into(matrix_, sinkhorn_, sf_);
  if (gram_.rows() != mn) gram_ = Matrix(mn, mn, 0.0);
  linalg::min_gram_into(sf_.standard, gram_);
  linalg::JacobiEigenOptions eig_opt;
  eig_opt.tol = 1e-8;
  linalg::symmetric_eigenvalues_warm(gram_, pending_eigbasis_, eig_, eig_ws_,
                                     eig_opt);
  double acc = 0.0;
  for (std::size_t i = 1; i < eig_.size(); ++i)
    acc += std::sqrt(std::max(eig_[i], 0.0));
  s.tma = acc / static_cast<double>(eig_.size() - 1);
  pending_row_scale_ = sf_.row_scale;
  pending_col_scale_ = sf_.col_scale;
  return s;
}

void MeasureView::commit(const MeasureSet& s, bool cold) {
  current_ = s;
  warm_row_scale_.swap(pending_row_scale_);
  warm_col_scale_.swap(pending_col_scale_);
  std::swap(eigbasis_, pending_eigbasis_);
  if (cold) {
    stats_.accumulated_drift = 0.0;
    updates_since_refresh_ = 0;
  }
}

void MeasureView::reset_sums() {
  row_sums_ = matrix_.row_sums();
  col_sums_ = matrix_.col_sums();
  sorted_row_sums_ = row_sums_;
  sorted_col_sums_ = col_sums_;
  std::sort(sorted_row_sums_.begin(), sorted_row_sums_.end());
  std::sort(sorted_col_sums_.begin(), sorted_col_sums_.end());
}

MeasureSet MeasureView::stage(std::span<const CellDelta> deltas, bool cold) {
  saved_row_sums_ = row_sums_;
  saved_col_sums_ = col_sums_;
  saved_sorted_row_sums_ = sorted_row_sums_;
  saved_sorted_col_sums_ = sorted_col_sums_;
  saved_cells_.clear();
  // Per-delta sorted maintenance is O(n) memmove per cell; past a small
  // batch it is cheaper to re-sort the final sums once. Both produce the
  // ascending ordering of the same incrementally-updated sums, so the
  // published measures are bit-identical either way. A cold evaluation
  // recomputes the sums from the matrix instead.
  const bool resort = deltas.size() > 16;
  for (const CellDelta& d : deltas) {
    const double old = matrix_(d.task, d.machine);
    saved_cells_.push_back(CellDelta{d.task, d.machine, old});
    matrix_(d.task, d.machine) = d.value;
    if (cold) continue;
    const double delta = d.value - old;
    const double old_rs = row_sums_[d.task];
    const double new_rs = old_rs + delta;
    row_sums_[d.task] = new_rs;
    if (!resort) replace_sorted(sorted_row_sums_, old_rs, new_rs);
    const double old_cs = col_sums_[d.machine];
    const double new_cs = old_cs + delta;
    col_sums_[d.machine] = new_cs;
    if (!resort) replace_sorted(sorted_col_sums_, old_cs, new_cs);
  }
  if (cold) {
    reset_sums();
  } else if (resort) {
    sorted_row_sums_.assign(row_sums_.begin(), row_sums_.end());
    std::sort(sorted_row_sums_.begin(), sorted_row_sums_.end());
    sorted_col_sums_.assign(col_sums_.begin(), col_sums_.end());
    std::sort(sorted_col_sums_.begin(), sorted_col_sums_.end());
  }
  try {
    return evaluate(cold);
  } catch (...) {
    unstage();
    throw;
  }
}

void MeasureView::unstage() {
  for (std::size_t i = saved_cells_.size(); i-- > 0;)
    matrix_(saved_cells_[i].task, saved_cells_[i].machine) =
        saved_cells_[i].value;
  row_sums_.swap(saved_row_sums_);
  col_sums_.swap(saved_col_sums_);
  sorted_row_sums_.swap(saved_sorted_row_sums_);
  sorted_col_sums_.swap(saved_sorted_col_sums_);
}

const MeasureSet& MeasureView::finish_update(bool cold) {
  if (cold) {
    ++stats_.cold_refreshes;
    stats_.last_update_cold = true;
  } else {
    stats_.accumulated_drift += drift_charge();
    ++updates_since_refresh_;
    ++stats_.warm_updates;
    stats_.last_update_cold = false;
  }
  ++stats_.version;
  return current_;
}

const MeasureSet& MeasureView::set_entry(std::size_t task, std::size_t machine,
                                         double ecs_value) {
  const CellDelta d{task, machine, ecs_value};
  return set_entries(std::span<const CellDelta>(&d, 1));
}

const MeasureSet& MeasureView::set_entries(std::span<const CellDelta> deltas) {
  require_no_proposal();
  if (deltas.empty()) return current_;
  propose(deltas);
  return accept();
}

const MeasureSet& MeasureView::propose(std::span<const CellDelta> deltas) {
  require_no_proposal();
  hetero::detail::require_value(!deltas.empty(),
                                "MeasureView::propose: no cells to change");
  for (const CellDelta& d : deltas) {
    hetero::detail::require_dims(
        d.task < matrix_.rows() && d.machine < matrix_.cols(),
        "MeasureView::set_entries: cell index out of range");
    hetero::detail::require_value(
        d.value > 0.0 && std::isfinite(d.value),
        "MeasureView::set_entries: value must be positive and finite");
  }
  const bool cold = next_update_cold();
  proposed_ = stage(deltas, cold);
  proposal_cold_ = cold;
  proposal_open_ = true;
  return proposed_;
}

const MeasureSet& MeasureView::accept() {
  hetero::detail::require_value(proposal_open_,
                                "MeasureView::accept: no open proposal");
  proposal_open_ = false;
  commit(proposed_, proposal_cold_);
  return finish_update(proposal_cold_);
}

void MeasureView::reject() {
  hetero::detail::require_value(proposal_open_,
                                "MeasureView::reject: no open proposal");
  proposal_open_ = false;
  unstage();
}

const MeasureSet& MeasureView::add_task(std::span<const double> ecs_row) {
  hetero::detail::require_dims(ecs_row.size() == matrix_.cols(),
                               "MeasureView::add_task: row length must equal "
                               "machines()");
  require_positive_finite(ecs_row,
                          "MeasureView::add_task: values must be positive "
                          "and finite");
  Matrix next(matrix_.rows() + 1, matrix_.cols());
  std::copy(matrix_.data().begin(), matrix_.data().end(),
            next.data().begin());
  std::copy(ecs_row.begin(), ecs_row.end(),
            next.data().begin() + static_cast<std::ptrdiff_t>(matrix_.size()));
  // Seed the new row's warm scale at its least-squares guess so the warm
  // Sinkhorn restart stays near the fixed point; the iteration is globally
  // convergent, so a poor guess only costs iterations.
  double seed = 1.0;
  if (!warm_row_scale_.empty() && !warm_col_scale_.empty()) {
    double s = 0.0;
    for (std::size_t j = 0; j < ecs_row.size(); ++j)
      s += ecs_row[j] * warm_col_scale_[j];
    const double target = std::sqrt(static_cast<double>(next.cols()) /
                                    static_cast<double>(next.rows()));
    const double guess = target / s;
    if (guess > 0.0 && std::isfinite(guess)) seed = guess;
  }
  return apply_structural(std::move(next), /*row_insert=*/true, seed,
                          /*erase=*/false, 0);
}

const MeasureSet& MeasureView::add_machine(std::span<const double> ecs_col) {
  hetero::detail::require_dims(ecs_col.size() == matrix_.rows(),
                               "MeasureView::add_machine: column length must "
                               "equal tasks()");
  require_positive_finite(ecs_col,
                          "MeasureView::add_machine: values must be positive "
                          "and finite");
  Matrix next(matrix_.rows(), matrix_.cols() + 1);
  for (std::size_t i = 0; i < matrix_.rows(); ++i) {
    const auto r = matrix_.row(i);
    std::copy(r.begin(), r.end(), &next(i, 0));
    next(i, matrix_.cols()) = ecs_col[i];
  }
  double seed = 1.0;
  if (!warm_row_scale_.empty() && !warm_col_scale_.empty()) {
    double s = 0.0;
    for (std::size_t i = 0; i < ecs_col.size(); ++i)
      s += ecs_col[i] * warm_row_scale_[i];
    const double target = std::sqrt(static_cast<double>(next.rows()) /
                                    static_cast<double>(next.cols()));
    const double guess = target / s;
    if (guess > 0.0 && std::isfinite(guess)) seed = guess;
  }
  return apply_structural(std::move(next), /*row_insert=*/false, seed,
                          /*erase=*/false, 0);
}

const MeasureSet& MeasureView::remove_task(std::size_t task) {
  hetero::detail::require_dims(task < matrix_.rows(),
                               "MeasureView::remove_task: index out of range");
  hetero::detail::require_value(matrix_.rows() > 1,
                                "MeasureView::remove_task: cannot remove the "
                                "last task type");
  Matrix next(matrix_.rows() - 1, matrix_.cols());
  for (std::size_t i = 0, o = 0; i < matrix_.rows(); ++i) {
    if (i == task) continue;
    const auto r = matrix_.row(i);
    std::copy(r.begin(), r.end(), &next(o++, 0));
  }
  return apply_structural(std::move(next), /*row_insert=*/true, 1.0,
                          /*erase=*/true, task);
}

const MeasureSet& MeasureView::remove_machine(std::size_t machine) {
  hetero::detail::require_dims(
      machine < matrix_.cols(),
      "MeasureView::remove_machine: index out of range");
  hetero::detail::require_value(matrix_.cols() > 1,
                                "MeasureView::remove_machine: cannot remove "
                                "the last machine");
  Matrix next(matrix_.rows(), matrix_.cols() - 1);
  for (std::size_t i = 0; i < matrix_.rows(); ++i) {
    const auto r = matrix_.row(i);
    for (std::size_t j = 0, o = 0; j < matrix_.cols(); ++j) {
      if (j == machine) continue;
      next(i, o++) = r[j];
    }
  }
  return apply_structural(std::move(next), /*row_insert=*/false, 1.0,
                          /*erase=*/true, machine);
}

const MeasureSet& MeasureView::apply_structural(Matrix next, bool row_side,
                                                double seed, bool erase,
                                                std::size_t index) {
  require_no_proposal();
  const bool cold = next_update_cold();
  Matrix old_matrix = std::move(matrix_);
  matrix_ = std::move(next);
  saved_row_sums_.swap(row_sums_);
  saved_col_sums_.swap(col_sums_);
  saved_sorted_row_sums_.swap(sorted_row_sums_);
  saved_sorted_col_sums_.swap(sorted_col_sums_);
  saved_cells_.clear();
  reset_sums();
  std::vector<double>& scale = row_side ? warm_row_scale_ : warm_col_scale_;
  const std::vector<double> old_scale = scale;
  if (!cold && !scale.empty()) {
    if (erase)
      scale.erase(scale.begin() + static_cast<std::ptrdiff_t>(index));
    else
      scale.push_back(seed);
  }
  MeasureSet s;
  try {
    s = evaluate(cold);
  } catch (...) {
    matrix_ = std::move(old_matrix);
    unstage();
    scale = old_scale;
    throw;
  }
  commit(s, cold);
  return finish_update(cold);
}

const MeasureSet& MeasureView::refresh() {
  require_no_proposal();
  commit(stage({}, /*cold=*/true), /*cold=*/true);
  ++stats_.cold_refreshes;
  stats_.last_update_cold = true;
  return current_;
}

MeasureSet MeasureView::cold_measures(const Matrix& ecs,
                                      const SinkhornOptions& sinkhorn) {
  MeasureViewOptions o;
  o.sinkhorn = sinkhorn;
  return MeasureView(ecs, std::move(o)).current();
}

}  // namespace hetero::core
