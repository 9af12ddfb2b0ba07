// Request/response protocol of the characterization service.
//
// The wire format is newline-delimited JSON (one request object per line,
// one response object per line), carried over stdin/stdout or a TCP
// socket. A request names a `kind` and supplies an ETC matrix in exactly
// the shape the JSON writer emits (labels optional, null = cannot run):
//
//   {"id": 7, "kind": "characterize", "etc": [[1, 2], [3, null]],
//    "deadline_ms": 100}
//   {"id": 8, "kind": "schedule", "heuristic": "min_min",
//    "tasks": [0, 1, 1, 0], "etc": {"etc": [[1, 2], [3, 4]]}}
//   {"kind": "whatif", "remove": "machines", "etc": [[1, 2], [3, 4]]}
//   {"kind": "stats"}
//
// Streaming sessions (stateful; available on the stream/TCP front ends,
// which key one session per connection):
//
//   {"id": 1, "kind": "subscribe", "etc": [[1, 2], [3, 4]],
//    "error_budget": 1e-5, "estimator": {"alpha": 0.2,
//    "min_rel_change": 0.01}}
//   {"id": 2, "kind": "update", "set": [{"task": 0, "machine": 1,
//    "etc": 2.5}], "observe": [{"task": 1, "machine": 0, "runtime": 3.1}],
//    "add_tasks": [[5, 6]], "add_machines": [[2, 3, 4]],
//    "remove_tasks": [0], "remove_machines": [1]}
//
// subscribe installs (or replaces) the connection's measure view over a
// fully-finite ETC matrix; update streams deltas against it and the
// response carries the re-evaluated measures plus view statistics. Both
// kinds are stateful, so they bypass admission control, the result cache
// and the raw-line memo, and each connection's are computed one at a time
// in arrival order.
//
// Responses echo the id:
//
//   {"id": 7, "ok": true, "result": {...}}
//   {"id": 7, "ok": false, "error": {"code": 429, "message": "..."}}
//
// Error codes follow the HTTP idiom: 400 malformed request, 408 deadline
// expired before compute, 429 queue full (admission rejected), 500
// internal failure. compute_result is a pure function of the request, so
// identical requests always produce byte-identical result payloads — the
// property the result cache relies on.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/etc_matrix.hpp"
#include "io/json.hpp"
#include "sched/makespan.hpp"
#include "svc/metrics.hpp"

namespace hetero::svc {

/// Protocol error codes (HTTP-flavored).
inline constexpr int kErrBadRequest = 400;
inline constexpr int kErrDeadlineExpired = 408;
inline constexpr int kErrQueueFull = 429;
inline constexpr int kErrInternal = 500;
/// Graceful shutdown: frames already decoded but not yet admitted when the
/// event loop begins draining are answered with 503 instead of silence.
inline constexpr int kErrUnavailable = 503;

/// A parsed, validated request.
struct Request {
  RequestKind kind = RequestKind::invalid;
  /// The request's "id" member re-serialized verbatim ("null" when absent);
  /// echoed into the response envelope.
  std::string id_json = "null";
  /// The environment; absent only for `stats`.
  std::optional<core::EtcMatrix> etc;
  /// `schedule`: explicit workload (task-type indices); empty = one
  /// instance of each task type.
  sched::TaskList tasks;
  /// `schedule`: heuristic token — find_heuristic()'s tokens plus "ga".
  std::string heuristic;
  /// `schedule` with "ga": GA seed (deterministic for a fixed seed), an
  /// integer in [0, 2^53].
  std::uint64_t seed = 1;
  /// `whatif`: which removals to evaluate.
  bool whatif_machines = true;
  bool whatif_tasks = true;
  /// Relative deadline; unset = no deadline. 0 means "already expired"
  /// (useful for drain tests).
  std::optional<std::chrono::milliseconds> deadline;

  /// `subscribe`: accumulated warm-update drift allowed before the
  /// session's view takes an automatic cold refresh.
  double stream_error_budget = 1e-5;
  /// `subscribe`: estimator gains (see core::EtcEstimatorOptions).
  double estimator_alpha = 0.2;
  double estimator_min_rel_change = 0.01;

  /// `update`: parsed delta lists. `set` values and the structural
  /// rows/columns are ETC entries; `observe` values are observed runtimes.
  /// Deltas apply sequentially in the order below (each list in element
  /// order, each index against the shape the preceding deltas produced);
  /// an invalid delta aborts the request at that point — earlier deltas
  /// in the same request stay applied, each one atomically.
  std::vector<std::size_t> remove_tasks;
  std::vector<std::size_t> remove_machines;
  std::vector<std::vector<double>> add_tasks;
  std::vector<std::vector<double>> add_machines;
  std::vector<io::CellUpdate> set;
  std::vector<io::CellUpdate> observe;
};

/// Parses and validates one request line. Throws hetero::Error (surfaced
/// as a 400 response) on malformed JSON, unknown kind, a missing/invalid
/// matrix, an unknown heuristic, out-of-range task indices or seed, or a
/// deadline above 1e12 ms. The matrix is read straight into the Request
/// (io::parse_etc_document); its shape and type errors are reported after
/// the kind and deadline checks.
Request parse_request(const std::string& line);

/// True when a kind's result may be served from the result cache (`stats`
/// reports live state and is never cached).
bool cacheable(RequestKind kind) noexcept;

/// Content hash of everything the result depends on: kind, matrix bits and
/// labels, heuristic/seed/tasks, what-if selection. Two requests with equal
/// keys produce byte-identical results.
std::uint64_t cache_key(const Request& request);

/// Computes the result payload (the `result` member, no envelope) for any
/// kind except `stats`. Pure; safe to call concurrently. Throws
/// hetero::Error on compute failure.
std::string compute_result(const Request& request);

/// {"id":<id>,"ok":true,"result":<result>}
std::string ok_response(const std::string& id_json, const std::string& result);

/// {"id":<id>,"ok":false,"error":{"code":<code>,"message":<message>}}
std::string error_response(const std::string& id_json, int code,
                           const std::string& message);

}  // namespace hetero::svc
