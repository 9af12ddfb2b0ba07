#include "core/etc_matrix.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>

#include "linalg/vector_ops.hpp"
#include "simd/simd.hpp"

namespace hetero::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string> resolve_labels(std::vector<std::string> given,
                                        std::size_t count, char prefix) {
  if (given.empty()) return default_labels(count, prefix);
  detail::require_dims(given.size() == count,
                       "EtcMatrix/EcsMatrix: label count mismatch");
  return given;
}

std::size_t find_label(const std::vector<std::string>& labels,
                       const std::string& name, const char* kind) {
  const auto it = std::find(labels.begin(), labels.end(), name);
  detail::require_value(it != labels.end(),
                        std::string("unknown ") + kind + " name: " + name);
  return static_cast<std::size_t>(it - labels.begin());
}

}  // namespace

std::vector<std::string> default_labels(std::size_t count, char prefix) {
  std::vector<std::string> labels;
  labels.reserve(count);
  char buf[24] = {prefix};
  for (std::size_t i = 1; i <= count; ++i)
    labels.emplace_back(buf, std::to_chars(buf + 1, std::end(buf), i).ptr);
  return labels;
}

EtcMatrix::EtcMatrix(linalg::Matrix values, std::vector<std::string> task_names,
                     std::vector<std::string> machine_names)
    : values_(std::move(values)),
      task_names_(resolve_labels(std::move(task_names), values_.rows(), 't')),
      machine_names_(
          resolve_labels(std::move(machine_names), values_.cols(), 'm')) {
  detail::require_dims(!values_.empty(), "EtcMatrix: empty matrix");
  // One row-major pass. A bad entry anywhere outranks a dead row, which
  // outranks a dead column, so the flags are only judged after the pass.
  const std::size_t rows = values_.rows();
  const std::size_t cols = values_.cols();
  const double* p = values_.data().data();
  bool bad_entry = false;
  bool dead_row = false;
  std::vector<unsigned char> useful(cols, 0);
  for (std::size_t i = 0; i < rows; ++i, p += cols) {
    bool runnable = false;
    for (std::size_t j = 0; j < cols; ++j) {
      const double x = p[j];
      bad_entry |= !(x > 0.0 && !std::isnan(x));
      const bool finite = std::isfinite(x);
      runnable |= finite;
      useful[j] |= static_cast<unsigned char>(finite);
    }
    dead_row |= !runnable;
  }
  detail::require_value(!bad_entry,
                        "EtcMatrix: entries must be positive or +inf");
  detail::require_value(!dead_row, "EtcMatrix: task runs on no machine");
  detail::require_value(
      std::find(useful.begin(), useful.end(), 0) == useful.end(),
      "EtcMatrix: machine runs no task");
}

EcsMatrix EtcMatrix::to_ecs() const {
  linalg::Matrix ecs(values_.rows(), values_.cols());
  // Entrywise reciprocal over the whole contiguous buffer; incapable (+inf)
  // entries map to speed 0.
  simd::kernels().reciprocal_or_zero(values_.data().data(),
                                     ecs.data().data(), ecs.size());
  return EcsMatrix(std::move(ecs), task_names_, machine_names_);
}

EtcMatrix EtcMatrix::submatrix(std::span<const std::size_t> tasks,
                               std::span<const std::size_t> machines) const {
  std::vector<std::string> tn, mn;
  for (std::size_t i : tasks) tn.push_back(task_names_.at(i));
  for (std::size_t j : machines) mn.push_back(machine_names_.at(j));
  return EtcMatrix(values_.submatrix(tasks, machines), std::move(tn),
                   std::move(mn));
}

std::size_t EtcMatrix::task_index(const std::string& name) const {
  return find_label(task_names_, name, "task");
}

std::size_t EtcMatrix::machine_index(const std::string& name) const {
  return find_label(machine_names_, name, "machine");
}

EcsMatrix::EcsMatrix(linalg::Matrix values, std::vector<std::string> task_names,
                     std::vector<std::string> machine_names)
    : values_(std::move(values)),
      task_names_(resolve_labels(std::move(task_names), values_.rows(), 't')),
      machine_names_(
          resolve_labels(std::move(machine_names), values_.cols(), 'm')) {
  detail::require_dims(!values_.empty(), "EcsMatrix: empty matrix");
  detail::require_value(!values_.has_nonfinite(),
                        "EcsMatrix: entries must be finite");
  detail::require_value(values_.all_nonnegative(),
                        "EcsMatrix: entries must be nonnegative");
  for (std::size_t i = 0; i < values_.rows(); ++i)
    detail::require_value(values_.row_sum(i) > 0.0,
                          "EcsMatrix: all-zero row (task runs on no machine)");
  for (std::size_t j = 0; j < values_.cols(); ++j)
    detail::require_value(values_.col_sum(j) > 0.0,
                          "EcsMatrix: all-zero column (machine runs no task)");
}

EtcMatrix EcsMatrix::to_etc() const {
  linalg::Matrix etc(values_.rows(), values_.cols());
  // Reverse conversion: zero speed (incapable) maps back to +inf time.
  simd::kernels().reciprocal_or_inf(values_.data().data(),
                                    etc.data().data(), etc.size());
  return EtcMatrix(std::move(etc), task_names_, machine_names_);
}

linalg::Matrix EcsMatrix::weighted_values(const Weights& w) const {
  w.validate(task_count(), machine_count());
  if (w.is_uniform()) return values_;
  linalg::Matrix out = values_;
  for (std::size_t i = 0; i < out.rows(); ++i)
    for (std::size_t j = 0; j < out.cols(); ++j)
      out(i, j) *= w.task_weight(i) * w.machine_weight(j);
  return out;
}

EcsMatrix EcsMatrix::submatrix(std::span<const std::size_t> tasks,
                               std::span<const std::size_t> machines) const {
  std::vector<std::string> tn, mn;
  for (std::size_t i : tasks) tn.push_back(task_names_.at(i));
  for (std::size_t j : machines) mn.push_back(machine_names_.at(j));
  return EcsMatrix(values_.submatrix(tasks, machines), std::move(tn),
                   std::move(mn));
}

EcsMatrix EcsMatrix::permuted(std::span<const std::size_t> task_perm,
                              std::span<const std::size_t> machine_perm) const {
  detail::require_value(linalg::is_permutation_vector(task_perm) &&
                            task_perm.size() == task_count(),
                        "EcsMatrix::permuted: bad task permutation");
  detail::require_value(linalg::is_permutation_vector(machine_perm) &&
                            machine_perm.size() == machine_count(),
                        "EcsMatrix::permuted: bad machine permutation");
  return submatrix(task_perm, machine_perm);
}

std::size_t EcsMatrix::task_index(const std::string& name) const {
  return find_label(task_names_, name, "task");
}

std::size_t EcsMatrix::machine_index(const std::string& name) const {
  return find_label(machine_names_, name, "machine");
}

}  // namespace hetero::core
