#include "core/whatif.hpp"

#include <numeric>

#include "core/measures.hpp"

namespace hetero::core {
namespace {

std::vector<std::size_t> indices_without(std::size_t count, std::size_t skip) {
  std::vector<std::size_t> idx;
  idx.reserve(count - 1);
  for (std::size_t i = 0; i < count; ++i)
    if (i != skip) idx.push_back(i);
  return idx;
}

std::vector<std::size_t> all_indices(std::size_t count) {
  std::vector<std::size_t> idx(count);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

}  // namespace

EcsMatrix remove_task(const EcsMatrix& ecs, std::size_t task) {
  detail::require_dims(task < ecs.task_count(), "remove_task: index out of range");
  detail::require_value(ecs.task_count() > 1, "remove_task: last task type");
  return ecs.submatrix(indices_without(ecs.task_count(), task),
                       all_indices(ecs.machine_count()));
}

EcsMatrix remove_machine(const EcsMatrix& ecs, std::size_t machine) {
  detail::require_dims(machine < ecs.machine_count(),
                       "remove_machine: index out of range");
  detail::require_value(ecs.machine_count() > 1, "remove_machine: last machine");
  return ecs.submatrix(all_indices(ecs.task_count()),
                       indices_without(ecs.machine_count(), machine));
}

EcsMatrix add_task(const EcsMatrix& ecs, std::span<const double> speeds,
                   std::string name) {
  detail::require_dims(speeds.size() == ecs.machine_count(),
                       "add_task: speed count != machine count");
  linalg::Matrix values(ecs.task_count() + 1, ecs.machine_count());
  for (std::size_t i = 0; i < ecs.task_count(); ++i)
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      values(i, j) = ecs(i, j);
  for (std::size_t j = 0; j < ecs.machine_count(); ++j)
    values(ecs.task_count(), j) = speeds[j];
  auto task_names = ecs.task_names();
  if (name.empty())
    name.append("t").append(std::to_string(ecs.task_count() + 1));
  task_names.push_back(std::move(name));
  return EcsMatrix(std::move(values), std::move(task_names),
                   ecs.machine_names());
}

EcsMatrix add_machine(const EcsMatrix& ecs, std::span<const double> speeds,
                      std::string name) {
  detail::require_dims(speeds.size() == ecs.task_count(),
                       "add_machine: speed count != task count");
  linalg::Matrix values(ecs.task_count(), ecs.machine_count() + 1);
  for (std::size_t i = 0; i < ecs.task_count(); ++i) {
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      values(i, j) = ecs(i, j);
    values(i, ecs.machine_count()) = speeds[i];
  }
  auto machine_names = ecs.machine_names();
  if (name.empty())
    name.append("m").append(std::to_string(ecs.machine_count() + 1));
  machine_names.push_back(std::move(name));
  return EcsMatrix(std::move(values), ecs.task_names(),
                   std::move(machine_names));
}

namespace {

// Weight vector with the entry for a removed row/column dropped.
std::vector<double> weights_without(const std::vector<double>& w,
                                    std::size_t skip) {
  if (w.empty()) return {};
  std::vector<double> out;
  out.reserve(w.size() - 1);
  for (std::size_t i = 0; i < w.size(); ++i)
    if (i != skip) out.push_back(w[i]);
  return out;
}

}  // namespace

std::vector<WhatIfDelta> whatif_remove_each_machine(const EcsMatrix& ecs,
                                                    const Weights& w) {
  w.validate(ecs.task_count(), ecs.machine_count());
  const MeasureSet before = measure_set(ecs, w);
  std::vector<WhatIfDelta> deltas;
  for (std::size_t j = 0; j < ecs.machine_count(); ++j) {
    WhatIfDelta d;
    d.description = "remove machine " + ecs.machine_names()[j];
    d.before = before;
    const Weights sliced{w.task, weights_without(w.machine, j)};
    try {
      d.after = measure_set(remove_machine(ecs, j), sliced);
    } catch (const Error&) {
      continue;  // removal would invalidate the environment
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

std::vector<WhatIfDelta> whatif_remove_each_task(const EcsMatrix& ecs,
                                                 const Weights& w) {
  w.validate(ecs.task_count(), ecs.machine_count());
  const MeasureSet before = measure_set(ecs, w);
  std::vector<WhatIfDelta> deltas;
  for (std::size_t i = 0; i < ecs.task_count(); ++i) {
    WhatIfDelta d;
    d.description = "remove task " + ecs.task_names()[i];
    d.before = before;
    const Weights sliced{weights_without(w.task, i), w.machine};
    try {
      d.after = measure_set(remove_task(ecs, i), sliced);
    } catch (const Error&) {
      continue;
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

HomogenizationResult greedy_homogenize(const EcsMatrix& ecs,
                                       std::size_t removals,
                                       const Weights& w) {
  w.validate(ecs.task_count(), ecs.machine_count());
  detail::require_value(removals < ecs.machine_count(),
                        "greedy_homogenize: cannot remove every machine");

  EcsMatrix current = ecs;
  Weights current_w = w;
  // original_index[j] maps current column j back to the input environment.
  std::vector<std::size_t> original_index(ecs.machine_count());
  std::iota(original_index.begin(), original_index.end(), std::size_t{0});

  HomogenizationResult out{
      {}, current, mph(current, current_w), mph(current, current_w)};

  for (std::size_t round = 0; round < removals; ++round) {
    double best_mph = out.mph_after;
    std::size_t best_machine = current.machine_count();
    for (std::size_t j = 0; j < current.machine_count(); ++j) {
      const Weights sliced{current_w.task,
                           weights_without(current_w.machine, j)};
      try {
        const double candidate = mph(remove_machine(current, j), sliced);
        if (candidate > best_mph) {
          best_mph = candidate;
          best_machine = j;
        }
      } catch (const Error&) {
        continue;  // removal would invalidate the environment
      }
    }
    if (best_machine == current.machine_count()) break;  // no improvement
    out.removed_machines.push_back(original_index[best_machine]);
    current_w =
        Weights{current_w.task, weights_without(current_w.machine, best_machine)};
    current = remove_machine(current, best_machine);
    original_index.erase(original_index.begin() +
                         static_cast<std::ptrdiff_t>(best_machine));
    out.mph_after = best_mph;
  }
  out.result = std::move(current);
  return out;
}

}  // namespace hetero::core
