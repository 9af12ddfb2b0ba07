#include "svc/session.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "io/json.hpp"

namespace hetero::svc {
namespace {

// Streaming sessions convert on the ETC/ECS boundary exactly like
// EtcMatrix::to_ecs (elementwise reciprocal), so a subscribe followed by
// zero updates characterizes the same ECS matrix a `measures` request
// would see.
double to_ecs(double etc_value) { return 1.0 / etc_value; }

std::vector<double> to_ecs_vector(const std::vector<double>& etc_values,
                                  const char* what) {
  std::vector<double> ecs;
  ecs.reserve(etc_values.size());
  for (const double v : etc_values) {
    detail::require_value(v > 0.0 && std::isfinite(v), what);
    ecs.push_back(to_ecs(v));
  }
  return ecs;
}

}  // namespace

bool StreamSession::active() const {
  const support::MutexLock lock(mutex_);
  return view_.has_value();
}

std::string StreamSession::handle(const Request& request) {
  const support::MutexLock lock(mutex_);
  if (request.kind == RequestKind::subscribe) return apply_subscribe(request);
  detail::require_value(request.kind == RequestKind::update,
                        "session: not a streaming request kind");
  return apply_update(request);
}

std::string StreamSession::apply_subscribe(const Request& request) {
  const core::EtcMatrix& etc = *request.etc;
  detail::require_value(
      !etc.values().empty() && etc.values().all_positive() &&
          !etc.values().has_nonfinite(),
      "subscribe: the streamed view needs a fully-runnable environment — "
      "every ETC entry must be positive and finite");
  core::MeasureViewOptions options;
  options.error_budget = request.stream_error_budget;
  core::EtcEstimatorOptions est;
  est.alpha = request.estimator_alpha;
  est.min_rel_change = request.estimator_min_rel_change;
  // Replace-semantics: a second subscribe discards the previous view.
  view_.emplace(etc.to_ecs().values(), options);
  estimator_.emplace(etc.values(), est);
  return result_payload(/*fed=*/0, /*observed=*/0,
                        view_->stats().cold_refreshes);
}

std::string StreamSession::apply_update(const Request& request) {
  detail::require_value(view_.has_value(),
                        "update: no active subscription on this connection; "
                        "send a subscribe request first");
  const std::uint64_t cold_before = view_->stats().cold_refreshes;
  std::uint64_t fed = 0;

  for (const std::size_t task : request.remove_tasks) {
    view_->remove_task(task);
    estimator_->remove_task(task);
  }
  for (const std::size_t machine : request.remove_machines) {
    view_->remove_machine(machine);
    estimator_->remove_machine(machine);
  }
  for (const std::vector<double>& row : request.add_tasks) {
    const std::vector<double> ecs = to_ecs_vector(
        row, "update: add_tasks entries must be positive and finite");
    view_->add_task(ecs);
    estimator_->add_task(row);
  }
  for (const std::vector<double>& col : request.add_machines) {
    const std::vector<double> ecs = to_ecs_vector(
        col, "update: add_machines entries must be positive and finite");
    view_->add_machine(ecs);
    estimator_->add_machine(col);
  }

  if (!request.set.empty()) {
    std::vector<core::CellDelta> deltas;
    deltas.reserve(request.set.size());
    for (const io::CellUpdate& u : request.set) {
      detail::require_value(u.value > 0.0 && std::isfinite(u.value),
                            "update: set values must be positive and finite "
                            "ETC entries");
      deltas.push_back(core::CellDelta{u.task, u.machine, to_ecs(u.value)});
    }
    // One batched re-evaluation for the whole set list; the estimator
    // adopts each value as authoritative afterwards (the view validated
    // the indices).
    view_->set_entries(deltas);
    for (const io::CellUpdate& u : request.set)
      estimator_->set(u.task, u.machine, u.value);
  }

  if (!request.observe.empty()) {
    std::vector<core::CellDelta> deltas;
    for (const io::CellUpdate& u : request.observe) {
      const auto revised = estimator_->observe(u.task, u.machine, u.value);
      if (revised) deltas.push_back(
          core::CellDelta{u.task, u.machine, to_ecs(*revised)});
    }
    // Only materially-moved cells reach the view; a noisy-but-stationary
    // stream costs zero re-evaluations.
    if (!deltas.empty()) view_->set_entries(deltas);
    fed = deltas.size();
  }

  return result_payload(fed, request.observe.size(), cold_before);
}

std::string StreamSession::result_payload(std::uint64_t fed,
                                          std::uint64_t observed,
                                          std::uint64_t cold_before) {
  const core::MeasureView::Stats& s = view_->stats();
  std::string out = "{\"measures\":";
  out += io::to_json(view_->current());
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += name;
    out += std::to_string(value);
  };
  field(",\"version\":", s.version);
  field(",\"warm_updates\":", s.warm_updates);
  field(",\"cold_refreshes\":", s.cold_refreshes);
  out += ",\"refreshed\":";
  out += s.cold_refreshes > cold_before ? "true" : "false";
  field(",\"tasks\":", view_->tasks());
  field(",\"machines\":", view_->machines());
  field(",\"observed\":", observed);
  field(",\"fed\":", fed);
  out += '}';
  return out;
}

}  // namespace hetero::svc
