#include "svc/server.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <utility>

#include "base/error.hpp"
#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "svc/session.hpp"

namespace hetero::svc {
namespace {

using Clock = std::chrono::steady_clock;

// Thrown inside the worker pipeline when a between-stage deadline check
// fails; mapped to kErrDeadlineExpired (never surfaces to callers).
class DeadlineExpired : public Error {
 public:
  DeadlineExpired() : Error("deadline expired") {}
};

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

// The message of an exception that is not a hetero::Error (std::bad_alloc
// and the like); call only from inside a catch block. Such a failure is
// the server's, not the request's: it is answered with kErrInternal.
std::string internal_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.cache_shards, options.cache_capacity_per_shard),
      queue_(options.queue_depth),
      pool_(options.threads) {}

Server::~Server() {
  queue_.close();
  // The pool destructor drains outstanding jobs; every admitted request
  // has exactly one drain job, so every queued item is answered before
  // the workers join.
}

bool Server::is_session_kind(RequestKind kind) noexcept {
  return kind == RequestKind::update || kind == RequestKind::subscribe;
}

std::string Server::session_response(
    const Request& request, StreamSession* session,
    std::optional<Clock::time_point> enqueued) {
  auto& k = metrics_.kind(request.kind);
  if (session == nullptr) {
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(request.id_json, kErrBadRequest,
                          std::string(kind_name(request.kind)) +
                              ": this front end has no streaming sessions");
  }
  const Clock::time_point start = Clock::now();
  try {
    std::string result = session->handle(request);
    k.queue_wait.record(enqueued ? elapsed_us(*enqueued, start) : 0);
    k.compute.record(elapsed_us(start, Clock::now()));
    k.completed.fetch_add(1, std::memory_order_relaxed);
    return ok_response(request.id_json, result);
  } catch (const Error& e) {
    // Session failures are request-content errors (bad indices,
    // non-positive values, overflow-guard trips, update-before-subscribe):
    // 400, with the session still consistent.
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(request.id_json, kErrBadRequest, e.what());
  }
}

void Server::submit(const std::string& line, ResponseFn respond,
                    StreamSession* session) {
  const Clock::time_point t0 = Clock::now();
  QueuedItem item;
  try {
    item.request = parse_request(line);
  } catch (const Error& e) {
    auto& k = metrics_.kind(RequestKind::invalid);
    k.received.fetch_add(1, std::memory_order_relaxed);
    k.errors.fetch_add(1, std::memory_order_relaxed);
    respond(error_response("null", kErrBadRequest, e.what()));
    return;
  }
  metrics_.kind(item.request.kind)
      .received.fetch_add(1, std::memory_order_relaxed);
  if (is_session_kind(item.request.kind)) {
    respond(session_response(item.request, session));
    return;
  }
  item.respond = std::move(respond);
  item.enqueued = t0;
  if (item.request.deadline)
    item.deadline = t0 + *item.request.deadline;
  else if (options_.default_deadline.count() > 0)
    item.deadline = t0 + options_.default_deadline;

  if (!queue_.try_push(std::move(item))) {
    metrics_.count_rejected_full();
    item.respond(error_response(
        item.request.id_json, kErrQueueFull,
        "queue full (depth " + std::to_string(queue_.depth()) +
            "); retry later"));
    return;
  }
  pool_.post([this] { drain_one(); });
}

std::optional<std::string> Server::submit_fast(
    const std::string& line, ResponseFn respond, const ShardMap* shard_map,
    std::size_t worker_index, FastPathInfo* info,
    const std::shared_ptr<StreamSession>& session) {
  const Clock::time_point t0 = Clock::now();
  QueuedItem item;
  try {
    item.request = parse_request(line);
  } catch (const Error& e) {
    auto& k = metrics_.kind(RequestKind::invalid);
    k.received.fetch_add(1, std::memory_order_relaxed);
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response("null", kErrBadRequest, e.what());
  }
  auto& k = metrics_.kind(item.request.kind);
  k.received.fetch_add(1, std::memory_order_relaxed);
  if (is_session_kind(item.request.kind)) {
    // Uncacheable, never memoized: info keeps inline_hit false so the
    // event loop's raw-line memo cannot replay a stateful response.
    if (info) {
      info->kind = item.request.kind;
      info->inline_hit = false;
      info->had_deadline = false;
    }
    if (session == nullptr)
      return session_response(item.request, nullptr);
    if (info) info->session_op = true;
    // Off the caller's thread: the job owns the request and shares the
    // session, so a connection closing meanwhile cannot free either.
    pool_.post([this, request = std::move(item.request), session,
                respond = std::move(respond), t0] {
      std::string response;
      try {
        response = session_response(request, session.get(), t0);
      } catch (...) {
        metrics_.kind(request.kind)
            .errors.fetch_add(1, std::memory_order_relaxed);
        response =
            error_response(request.id_json, kErrInternal, internal_message());
      }
      respond(std::move(response));
    });
    return std::nullopt;
  }
  item.enqueued = t0;
  if (item.request.deadline)
    item.deadline = t0 + *item.request.deadline;
  else if (options_.default_deadline.count() > 0)
    item.deadline = t0 + options_.default_deadline;
  if (info) {
    info->kind = item.request.kind;
    info->inline_hit = false;
    info->had_deadline = item.deadline != Clock::time_point::max();
  }

  if (cacheable(item.request.kind)) {
    item.cache_key = cache_key(item.request);
    const bool owns_shard =
        shard_map == nullptr ||
        shard_map->owner(cache_.shard_index(*item.cache_key)) == worker_index;
    if (owns_shard) {
      // Inline warm-hit path: same expiry check the worker would make at
      // pop time, then the cache — a hit responds from the loop thread
      // with the exact bytes the pool path would have produced.
      if (item.expired(Clock::now())) {
        metrics_.count_rejected_deadline();
        return error_response(item.request.id_json, kErrDeadlineExpired,
                              "deadline expired before dispatch");
      }
      if (auto hit = cache_.get(*item.cache_key)) {
        k.cache_hits.fetch_add(1, std::memory_order_relaxed);
        k.queue_wait.record(0);
        k.compute.record(elapsed_us(t0, Clock::now()));
        k.completed.fetch_add(1, std::memory_order_relaxed);
        if (info) info->inline_hit = true;
        return ok_response(item.request.id_json, *hit);
      }
    }
  }

  item.respond = std::move(respond);
  if (!queue_.try_push(std::move(item))) {
    // Rejection leaves the item intact, so the id is still available.
    metrics_.count_rejected_full();
    return error_response(
        item.request.id_json, kErrQueueFull,
        "queue full (depth " + std::to_string(queue_.depth()) +
            "); retry later");
  }
  pool_.post([this] { drain_one(); });
  return std::nullopt;
}

void Server::drain_one() {
  auto popped = queue_.try_pop();
  if (!popped) return;  // close() raced; nothing left to answer
  const QueuedItem item = std::move(*popped);
  const Clock::time_point now = Clock::now();
  metrics_.kind(item.request.kind)
      .queue_wait.record(elapsed_us(item.enqueued, now));
  if (item.expired(now)) {
    metrics_.count_rejected_deadline();
    item.respond(error_response(item.request.id_json, kErrDeadlineExpired,
                                "deadline expired before dispatch"));
    return;
  }
  process(item);
}

std::string Server::result_for(const Request& request,
                               Clock::time_point deadline,
                               std::optional<std::uint64_t> precomputed_key) {
  if (request.kind == RequestKind::stats) return to_json(metrics_.snapshot());
  auto& k = metrics_.kind(request.kind);
  if (!cacheable(request.kind)) return compute_result(request);
  const std::uint64_t key =
      precomputed_key ? *precomputed_key : cache_key(request);
  if (auto hit = cache_.get(key)) {
    k.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return *std::move(hit);
  }
  k.cache_misses.fetch_add(1, std::memory_order_relaxed);
  // Between-stage deadline check: the expensive compute has not started
  // yet, so an expired request can still be rejected cheaply.
  if (Clock::now() > deadline) throw DeadlineExpired();
  std::string result = compute_result(request);
  cache_.put(key, result);
  return result;
}

void Server::process(const QueuedItem& item) {
  auto& k = metrics_.kind(item.request.kind);
  const Clock::time_point start = Clock::now();
  std::string response;
  try {
    std::string result = result_for(item.request, item.deadline,
                                    item.cache_key);
    k.compute.record(elapsed_us(start, Clock::now()));
    k.completed.fetch_add(1, std::memory_order_relaxed);
    response = ok_response(item.request.id_json, result);
  } catch (const DeadlineExpired&) {
    metrics_.count_rejected_deadline();
    response = error_response(item.request.id_json, kErrDeadlineExpired,
                              "deadline expired before compute");
  } catch (const Error& e) {
    k.errors.fetch_add(1, std::memory_order_relaxed);
    response = error_response(item.request.id_json, kErrInternal, e.what());
  } catch (...) {
    k.errors.fetch_add(1, std::memory_order_relaxed);
    response =
        error_response(item.request.id_json, kErrInternal, internal_message());
  }
  item.respond(std::move(response));
}

std::string Server::handle(const std::string& line, StreamSession* session) {
  std::string out;
  const Clock::time_point t0 = Clock::now();
  QueuedItem item;
  try {
    item.request = parse_request(line);
  } catch (const Error& e) {
    auto& k = metrics_.kind(RequestKind::invalid);
    k.received.fetch_add(1, std::memory_order_relaxed);
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response("null", kErrBadRequest, e.what());
  }
  metrics_.kind(item.request.kind)
      .received.fetch_add(1, std::memory_order_relaxed);
  if (is_session_kind(item.request.kind))
    return session_response(item.request, session);
  item.enqueued = t0;
  if (item.request.deadline)
    item.deadline = t0 + *item.request.deadline;
  else if (options_.default_deadline.count() > 0)
    item.deadline = t0 + options_.default_deadline;
  item.respond = [&out](std::string response) { out = std::move(response); };
  process(item);
  return out;
}

namespace {

// serve_stream's shared state: serialized response writes plus the drain
// bookkeeping. Guarded accesses live in member functions (not in the
// response lambda) so the thread-safety analysis can verify each one
// against the mutex it requires.
class StreamGate {
 public:
  void begin_request() {
    const support::MutexLock lock(flight_mutex_);
    ++in_flight_;
  }

  void write_response(std::ostream& out, const std::string& response) {
    const support::MutexLock lock(out_mutex_);
    out << response << '\n';
    out.flush();
  }

  void end_request() {
    // Notify under the lock: the waiter destroys this object right after
    // the predicate holds, so an unlocked notify could touch a dead cv.
    const support::MutexLock lock(flight_mutex_);
    --in_flight_;
    drained_.notify_one();
  }

  void wait_drained() {
    support::MutexLock lock(flight_mutex_);
    while (in_flight_ != 0) drained_.wait(lock);
  }

 private:
  support::Mutex out_mutex_{support::kRankStreamOut, "stream-out"};
  support::Mutex flight_mutex_{support::kRankStreamFlight, "stream-flight"};
  support::CondVar drained_;
  std::size_t in_flight_ HETERO_GUARDED_BY(flight_mutex_) = 0;
};

}  // namespace

void Server::serve_stream(std::istream& in, std::ostream& out) {
  StreamGate gate;
  // One streaming session per stream: the stdin/stdout mode behaves like a
  // single connection, so subscribe/update state lives for the whole run.
  StreamSession session;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    gate.begin_request();
    submit(
        line,
        [&gate, &out](std::string response) {
          gate.write_response(out, response);
          gate.end_request();
        },
        &session);
    line.clear();
  }
  gate.wait_drained();
}

}  // namespace hetero::svc
