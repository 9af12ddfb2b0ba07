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
      pool_(options.threads) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
}

bool Server::is_session_kind(RequestKind kind) noexcept {
  return kind == RequestKind::update || kind == RequestKind::subscribe;
}

std::optional<std::string> Server::parse(const std::string& line,
                                         Item& item) {
  item.enqueued = Clock::now();
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
  if (item.request.deadline)
    item.deadline = item.enqueued + *item.request.deadline;
  else if (options_.default_deadline.count() > 0)
    item.deadline = item.enqueued + options_.default_deadline;
  return std::nullopt;
}

bool Server::admit() noexcept {
  std::size_t waiting = waiting_.load();
  do {
    if (waiting >= options_.queue_depth) return false;
  } while (!waiting_.compare_exchange_weak(waiting, waiting + 1));
  return true;
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

std::optional<std::string> Server::submit(
    const std::string& line, ResponseFn respond, const ShardMap* shard_map,
    std::size_t worker_index, SubmitInfo* info,
    const std::shared_ptr<StreamSession>& session) {
  Item item;
  auto error = parse(line, item);
  if (info) *info = SubmitInfo{item.request.kind};
  if (error) return error;
  auto& k = metrics_.kind(item.request.kind);
  if (is_session_kind(item.request.kind)) {
    if (session == nullptr)
      return session_response(item.request, nullptr);
    if (info) info->session_op = true;
    // Off the caller's thread: the job owns the request and shares the
    // session, so a connection closing meanwhile cannot free either.
    pool_.post([this, request = std::move(item.request), session,
                respond = std::move(respond), enqueued = item.enqueued] {
      std::string response;
      try {
        response = session_response(request, session.get(), enqueued);
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

  if (cacheable(item.request.kind)) {
    item.key = cache_key(item.request);
    const bool owns_shard =
        shard_map == nullptr ||
        shard_map->owner(cache_.shard_index(*item.key)) == worker_index;
    if (owns_shard) {
      // Inline warm-hit path: the same expiry check the worker would make
      // when the job starts, then the cache — a hit responds from the
      // calling thread with the exact bytes the pool path would produce.
      // A miss goes uncounted: the worker looks again when the job starts,
      // by which time an identical request ahead of it may have filled
      // the entry.
      if (Clock::now() > item.deadline) {
        metrics_.count_rejected_deadline();
        return error_response(item.request.id_json, kErrDeadlineExpired,
                              "deadline expired before dispatch");
      }
      if (auto hit = cache_.probe(*item.key)) {
        k.cache_hits.fetch_add(1, std::memory_order_relaxed);
        k.queue_wait.record(0);
        k.compute.record(elapsed_us(item.enqueued, Clock::now()));
        k.completed.fetch_add(1, std::memory_order_relaxed);
        if (info)
          info->memoizable = item.deadline == Clock::time_point::max();
        return ok_response(item.request.id_json, *hit);
      }
    }
  }

  if (!admit()) {
    metrics_.count_rejected_full();
    return error_response(
        item.request.id_json, kErrQueueFull,
        "queue full (depth " + std::to_string(options_.queue_depth) +
            "); retry later");
  }
  pool_.post([this, item = std::move(item), respond = std::move(respond)] {
    waiting_.fetch_sub(1);
    const Clock::time_point now = Clock::now();
    metrics_.kind(item.request.kind)
        .queue_wait.record(elapsed_us(item.enqueued, now));
    if (now > item.deadline) {
      metrics_.count_rejected_deadline();
      respond(error_response(item.request.id_json, kErrDeadlineExpired,
                             "deadline expired before dispatch"));
      return;
    }
    respond(process(item));
  });
  return std::nullopt;
}

std::string Server::result_for(const Item& item) {
  const Request& request = item.request;
  if (request.kind == RequestKind::stats) return to_json(metrics_.snapshot());
  auto& k = metrics_.kind(request.kind);
  if (!cacheable(request.kind)) return compute_result(request);
  const std::uint64_t key = item.key ? *item.key : cache_key(request);
  if (auto hit = cache_.get(key)) {
    k.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return *std::move(hit);
  }
  k.cache_misses.fetch_add(1, std::memory_order_relaxed);
  // Between-stage deadline check: the expensive compute has not started
  // yet, so an expired request can still be rejected cheaply.
  if (Clock::now() > item.deadline) throw DeadlineExpired();
  std::string result = compute_result(request);
  cache_.put(key, result);
  return result;
}

std::string Server::process(const Item& item) {
  auto& k = metrics_.kind(item.request.kind);
  const Clock::time_point start = Clock::now();
  try {
    std::string result = result_for(item);
    k.compute.record(elapsed_us(start, Clock::now()));
    k.completed.fetch_add(1, std::memory_order_relaxed);
    return ok_response(item.request.id_json, result);
  } catch (const DeadlineExpired&) {
    metrics_.count_rejected_deadline();
    return error_response(item.request.id_json, kErrDeadlineExpired,
                          "deadline expired before compute");
  } catch (const Error& e) {
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(item.request.id_json, kErrInternal, e.what());
  } catch (...) {
    k.errors.fetch_add(1, std::memory_order_relaxed);
    return error_response(item.request.id_json, kErrInternal,
                          internal_message());
  }
}

std::string Server::handle(const std::string& line, StreamSession* session) {
  Item item;
  if (auto error = parse(line, item)) return *std::move(error);
  if (is_session_kind(item.request.kind))
    return session_response(item.request, session);
  return process(item);
}

namespace {

// serve_stream's shared state: serialized response writes plus the drain
// bookkeeping. Guarded accesses live in member functions (not in the
// response lambda) so the thread-safety analysis can verify each one
// against the mutex it requires.
class StreamGate {
 public:
  /// Counts one request in flight and returns its ticket for finish().
  std::uint64_t begin_request() {
    const support::MutexLock lock(flight_mutex_);
    ++in_flight_;
    latest_answered_ = false;
    return ++latest_;
  }

  /// Writes the response to request `ticket` and counts it answered.
  void finish(std::ostream& out, const std::string& response,
              std::uint64_t ticket) {
    {
      const support::MutexLock lock(out_mutex_);
      out << response << '\n';
      out.flush();
    }
    // Notify under the lock: the waiter destroys this object right after
    // the predicate holds, so an unlocked notify could touch a dead cv.
    const support::MutexLock lock(flight_mutex_);
    --in_flight_;
    if (ticket == latest_) latest_answered_ = true;
    answered_.notify_one();
  }

  /// Waits until the latest request begun has been answered; requests
  /// begun before it may still be in flight.
  void wait_latest() {
    support::MutexLock lock(flight_mutex_);
    while (!latest_answered_) answered_.wait(lock);
  }

  void wait_drained() {
    support::MutexLock lock(flight_mutex_);
    while (in_flight_ != 0) answered_.wait(lock);
  }

 private:
  support::Mutex out_mutex_{support::kRankStreamOut, "stream-out"};
  support::Mutex flight_mutex_{support::kRankStreamFlight, "stream-flight"};
  // One waiter (the reading thread) at a time, so notify_one suffices.
  support::CondVar answered_;
  std::size_t in_flight_ HETERO_GUARDED_BY(flight_mutex_) = 0;
  std::uint64_t latest_ HETERO_GUARDED_BY(flight_mutex_) = 0;
  bool latest_answered_ HETERO_GUARDED_BY(flight_mutex_) = false;
};

}  // namespace

void Server::serve_stream(std::istream& in, std::ostream& out) {
  StreamGate gate;
  // One streaming session per stream: the stdin/stdout mode behaves like a
  // single connection, so subscribe/update state lives for the whole run.
  const auto session = std::make_shared<StreamSession>();
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::uint64_t ticket = gate.begin_request();
    SubmitInfo info;
    const auto response = submit(
        line,
        [&gate, &out, ticket](std::string r) { gate.finish(out, r, ticket); },
        nullptr, 0, &info, session);
    if (response)
      gate.finish(out, *response, ticket);
    else if (info.session_op)
      gate.wait_latest();  // the next line may touch the same session
    line.clear();
  }
  gate.wait_drained();
}

}  // namespace hetero::svc
