#include "svc/protocol.hpp"

#include <cmath>
#include <utility>

#include "base/error.hpp"
#include "core/measures.hpp"
#include "core/whatif.hpp"
#include "io/json.hpp"
#include "sched/evolutionary.hpp"
#include "sched/heuristics.hpp"
#include "svc/result_cache.hpp"

namespace hetero::svc {
namespace {

// Bumped whenever the result payload format changes, so stale cache
// entries from an older schema can never alias a new request's key.
constexpr std::string_view kCacheSchemaTag = "svc-v1";

// Bound on a request's relative deadline: far beyond any real one, and
// small enough that now + deadline cannot overflow steady_clock's
// nanosecond count.
constexpr double kMaxDeadlineMs = 1e12;

bool needs_matrix(RequestKind kind) noexcept {
  return kind == RequestKind::characterize || kind == RequestKind::measures ||
         kind == RequestKind::schedule || kind == RequestKind::whatif;
}

std::string schedule_result(const Request& request) {
  const core::EtcMatrix& etc = *request.etc;
  const sched::TaskList tasks =
      request.tasks.empty() ? sched::one_of_each(etc) : request.tasks;
  sched::Assignment assignment;
  if (request.heuristic == "ga") {
    sched::GaMapperOptions options;
    options.seed = request.seed;
    assignment = sched::map_genetic(etc, tasks, options);
  } else {
    const sched::Heuristic* h = sched::find_heuristic(request.heuristic);
    detail::require_value(h != nullptr,
                          "schedule: unknown heuristic \"" +
                              request.heuristic + "\"");
    assignment = h->map(etc, tasks);
  }
  return io::to_json(sched::summarize_schedule(etc, tasks, request.heuristic,
                                               std::move(assignment)));
}

std::string whatif_result(const Request& request) {
  const auto ecs = request.etc->to_ecs();
  std::string out = "{\"changes\":[";
  bool first = true;
  const auto append = [&](const std::vector<core::WhatIfDelta>& deltas) {
    for (const auto& d : deltas) {
      if (!first) out += ',';
      first = false;
      out += "{\"description\":\"";
      out += io::json_escape(d.description);
      out += "\",\"before\":";
      out += io::to_json(d.before);
      out += ",\"after\":";
      out += io::to_json(d.after);
      out += '}';
    }
  };
  if (request.whatif_machines)
    append(core::whatif_remove_each_machine(ecs));
  if (request.whatif_tasks) append(core::whatif_remove_each_task(ecs));
  out += "]}";
  return out;
}

}  // namespace

Request parse_request(const std::string& line) {
  io::EtcDocument parsed = io::parse_etc_document(line);
  const io::JsonValue& doc = parsed.root;
  detail::require_value(doc.is_object(), "request must be a JSON object");
  Request request;
  if (const io::JsonValue* id = doc.find("id"))
    request.id_json = io::to_json(*id);

  const io::JsonValue* kind = doc.find("kind");
  detail::require_value(kind != nullptr && kind->is_string(),
                        "request needs a string \"kind\"");
  request.kind = parse_kind(kind->as_string());
  detail::require_value(request.kind != RequestKind::invalid,
                        "unknown request kind \"" + kind->as_string() + "\"");

  if (const io::JsonValue* d = doc.find("deadline_ms")) {
    const double ms = d->as_number();
    detail::require_value(ms >= 0 && std::isfinite(ms),
                          "deadline_ms must be a nonnegative number");
    detail::require_value(ms <= kMaxDeadlineMs,
                          "deadline_ms must be at most 1e12 (about 31 years)");
    request.deadline =
        std::chrono::milliseconds(static_cast<std::int64_t>(ms));
  }

  if (needs_matrix(request.kind)) {
    detail::require_value(parsed.etc.has_value(),
                          "request needs an \"etc\" matrix");
    request.etc = parsed.etc->take();
  }

  if (request.kind == RequestKind::schedule) {
    const io::JsonValue* heuristic = doc.find("heuristic");
    detail::require_value(heuristic != nullptr && heuristic->is_string(),
                          "schedule needs a string \"heuristic\"");
    request.heuristic = heuristic->as_string();
    detail::require_value(
        request.heuristic == "ga" ||
            sched::find_heuristic(request.heuristic) != nullptr,
        "schedule: unknown heuristic \"" + request.heuristic + "\"");
    if (const io::JsonValue* seed = doc.find("seed"))
      request.seed = io::integer_from_json(
          *seed, 0x1p53, "schedule: seed must be an integer in [0, 2^53]");
    if (const io::JsonValue* tasks = doc.find("tasks")) {
      const double count = static_cast<double>(request.etc->task_count());
      for (const auto& t : tasks->as_array()) {
        const std::uint64_t v = io::integer_from_json(
            t, count - 1, "schedule: task index out of range");
        request.tasks.push_back(static_cast<std::size_t>(v));
      }
      detail::require_value(!request.tasks.empty(),
                            "schedule: \"tasks\" must not be empty");
    }
  }

  if (request.kind == RequestKind::subscribe) {
    // Subscribe carries a matrix but must never be cacheable (it mutates
    // session state), so it is read here rather than via needs_matrix().
    detail::require_value(parsed.etc.has_value(),
                          "subscribe needs an \"etc\" matrix");
    request.etc = parsed.etc->take();
    if (const io::JsonValue* budget = doc.find("error_budget")) {
      const double v = budget->as_number();
      detail::require_value(v >= 0 && std::isfinite(v),
                            "subscribe: error_budget must be a nonnegative "
                            "number");
      request.stream_error_budget = v;
    }
    if (const io::JsonValue* est = doc.find("estimator")) {
      detail::require_value(est->is_object(),
                            "subscribe: \"estimator\" must be an object");
      if (const io::JsonValue* alpha = est->find("alpha")) {
        const double v = alpha->as_number();
        detail::require_value(v > 0 && v <= 1,
                              "subscribe: estimator.alpha must be in (0, 1]");
        request.estimator_alpha = v;
      }
      if (const io::JsonValue* mrc = est->find("min_rel_change")) {
        const double v = mrc->as_number();
        detail::require_value(v >= 0 && std::isfinite(v),
                              "subscribe: estimator.min_rel_change must be a "
                              "nonnegative number");
        request.estimator_min_rel_change = v;
      }
    }
  }

  if (request.kind == RequestKind::update) {
    if (const io::JsonValue* v = doc.find("remove_tasks"))
      request.remove_tasks = io::index_list_from_json(*v);
    if (const io::JsonValue* v = doc.find("remove_machines"))
      request.remove_machines = io::index_list_from_json(*v);
    if (const io::JsonValue* v = doc.find("add_tasks"))
      request.add_tasks = io::number_lists_from_json(*v);
    if (const io::JsonValue* v = doc.find("add_machines"))
      request.add_machines = io::number_lists_from_json(*v);
    if (const io::JsonValue* v = doc.find("set"))
      request.set = io::cell_updates_from_json(*v, "etc");
    if (const io::JsonValue* v = doc.find("observe"))
      request.observe = io::cell_updates_from_json(*v, "runtime");
  }

  if (request.kind == RequestKind::whatif) {
    if (const io::JsonValue* remove = doc.find("remove")) {
      const std::string& mode = remove->as_string();
      detail::require_value(
          mode == "machines" || mode == "tasks" || mode == "both",
          "whatif: \"remove\" must be machines|tasks|both");
      request.whatif_machines = mode != "tasks";
      request.whatif_tasks = mode != "machines";
    }
  }
  return request;
}

bool cacheable(RequestKind kind) noexcept {
  return needs_matrix(kind);
}

std::uint64_t cache_key(const Request& request) {
  ContentHasher h;
  h.add_string(kCacheSchemaTag);
  h.add_u64(static_cast<std::uint64_t>(request.kind));
  if (request.etc) {
    const core::EtcMatrix& etc = *request.etc;
    h.add_u64(etc.task_count()).add_u64(etc.machine_count());
    for (const double v : etc.values().data()) h.add_double(v);
    for (const auto& name : etc.task_names()) h.add_string(name);
    for (const auto& name : etc.machine_names()) h.add_string(name);
  }
  if (request.kind == RequestKind::schedule) {
    h.add_string(request.heuristic);
    h.add_u64(request.seed);
    h.add_u64(request.tasks.size());
    for (const std::size_t t : request.tasks) h.add_u64(t);
  }
  if (request.kind == RequestKind::whatif) {
    h.add_u64(static_cast<std::uint64_t>(request.whatif_machines));
    h.add_u64(static_cast<std::uint64_t>(request.whatif_tasks));
  }
  return h.digest();
}

std::string compute_result(const Request& request) {
  switch (request.kind) {
    case RequestKind::characterize: {
      const auto ecs = request.etc->to_ecs();
      return io::to_json(core::characterize(ecs), ecs);
    }
    case RequestKind::measures:
      return io::to_json(core::measure_set(request.etc->to_ecs()));
    case RequestKind::schedule: return schedule_result(request);
    case RequestKind::whatif: return whatif_result(request);
    case RequestKind::stats:
    case RequestKind::update:
    case RequestKind::subscribe:
    case RequestKind::invalid: break;
  }
  throw ValueError("compute_result: kind has no computable result");
}

std::string ok_response(const std::string& id_json,
                        const std::string& result) {
  std::string out;
  out.reserve(id_json.size() + result.size() + 32);
  out += "{\"id\":";
  out += id_json;
  out += ",\"ok\":true,\"result\":";
  out += result;
  out += '}';
  return out;
}

std::string error_response(const std::string& id_json, int code,
                           const std::string& message) {
  std::string out = "{\"id\":";
  out += id_json;
  out += ",\"ok\":false,\"error\":{\"code\":";
  out += std::to_string(code);
  out += ",\"message\":\"";
  out += io::json_escape(message);
  out += "\"}}";
  return out;
}

}  // namespace hetero::svc
