// The long-running characterization server: admission control, sharded
// result cache, metrics, and the worker pipeline tying them together.
//
// One Server owns one par::ThreadPool, and the pool's FIFO is the only
// request queue. submit() parses a request on the calling thread and
// answers it there when it can (400 parse errors, 408 deadlines expired on
// arrival, 429 admission rejections, warm cache hits); otherwise it posts
// exactly one pool job that carries the request and fires `respond`.
// Admission is a count of posted jobs not yet started, bounded by
// queue_depth. Every submitted request receives exactly one response —
// overload produces an explicit 429-style error, never a silent drop.
//
// Front ends: serve_stream() speaks newline-delimited JSON over any
// istream/ostream pair (the stdin/stdout mode of hetero_served); TCP is
// served by svc::EventLoopServer (event_loop.hpp). Both run each line
// through submit(). Session requests (subscribe/update) run on the pool
// too, one job per request; each front end dispatches a session op only
// after the previous one is answered, so a session sees its requests in
// arrival order.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "parallel/thread_pool.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/result_cache.hpp"

namespace hetero::svc {

class StreamSession;

/// Delivers the response line for one request submitted to the pool.
using ResponseFn = std::function<void(std::string)>;

struct ServerOptions {
  /// Worker threads; 0 = hardware_concurrency.
  std::size_t threads = 0;
  /// Admission-control depth: requests beyond this many admitted but not
  /// yet started are rejected with kErrQueueFull (0 is taken as 1).
  std::size_t queue_depth = 256;
  /// Result-cache geometry (shards rounded up to a power of two).
  std::size_t cache_shards = 16;
  std::size_t cache_capacity_per_shard = 64;
  /// Applied when a request carries no deadline_ms; zero = no deadline.
  std::chrono::milliseconds default_deadline{0};
};

class Server {
 public:
  /// Destruction runs every posted job, so each admitted request is
  /// answered before the workers join.
  explicit Server(ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// What submit did with the request, for front ends that cache or
  /// account responses without re-parsing the line (the event loop's
  /// raw-line memo and per-kind metrics).
  struct SubmitInfo {
    RequestKind kind = RequestKind::invalid;
    /// The returned response is a warm cache hit for a request without a
    /// deadline: replaying it for the same line is exact.
    bool memoizable = false;
    /// A session request (update/subscribe) went to the pool: the caller
    /// must not dispatch its next session request until `respond` has
    /// fired, so the session sees its requests in arrival order.
    bool session_op = false;
  };

  /// The asynchronous entry point. Returns the response when it can be
  /// produced without the worker pool — parse errors (400), admission
  /// rejections (429), expired-on-arrival deadlines (408), and warm cache
  /// hits served on the calling thread; otherwise posts one pool job
  /// carrying the request and returns nullopt, and `respond` fires exactly
  /// once on a pool worker. `respond` is never invoked when a value is
  /// returned; it may run concurrently with other requests' callbacks.
  /// `line` is borrowed for the duration of the call.
  ///
  /// Warm hits are served inline only for cache shards the calling worker
  /// owns under `shard_map` (nullptr = own everything): each shard's mutex
  /// then stays on one loop thread in the steady state, so warm throughput
  /// scales with workers instead of bouncing a lock. Non-owned shards take
  /// the pool path and still hit the cache on the worker, so the response
  /// bytes are identical either way. Each cacheable request counts once
  /// in cache().stats(): the inline lookup counts only a hit, and a miss is
  /// looked up again (and counted) when the pool job starts, so a burst of
  /// identical cold requests computes about once per worker, not once per
  /// request.
  ///
  /// Stateful session requests (update/subscribe) are posted to the pool
  /// as one job that computes against `session` (which the job keeps
  /// alive) and fires `respond` — info->session_op is then set. They are
  /// answered inline with a 400 when `session` is null, and are never
  /// memoizable.
  std::optional<std::string> submit(
      const std::string& line, ResponseFn respond,
      const ShardMap* shard_map = nullptr, std::size_t worker_index = 0,
      SubmitInfo* info = nullptr,
      const std::shared_ptr<StreamSession>& session = nullptr);

  /// Synchronous entry point: full pipeline (cache included) on the
  /// calling thread, bypassing admission control. The cold and cached
  /// paths produce byte-identical responses. update/subscribe run against
  /// `session` (400 when nullptr).
  std::string handle(const std::string& line,
                     StreamSession* session = nullptr);

  /// Newline-delimited JSON loop: reads requests from `in` until EOF,
  /// writes one response line per request to `out` (completion order, not
  /// arrival order — clients correlate by id), and returns once every
  /// in-flight request has been answered. The stream is one connection
  /// with one streaming session.
  void serve_stream(std::istream& in, std::ostream& out);

  Metrics& metrics() noexcept { return metrics_; }
  ResultCache& cache() noexcept { return cache_; }
  par::ThreadPool& pool() noexcept { return pool_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One parsed request on its way to a response.
  struct Item {
    Request request;
    /// Content hash, when the calling thread already computed it.
    std::optional<std::uint64_t> key;
    Clock::time_point enqueued{};
    /// time_point::max() means "no deadline".
    Clock::time_point deadline = Clock::time_point::max();
  };

  /// Parses `line` into `item`, counts it received, and stamps its
  /// deadline. Returns the 400 response when the line does not parse.
  std::optional<std::string> parse(const std::string& line, Item& item);
  /// Takes one admission slot; false when queue_depth jobs are waiting.
  bool admit() noexcept;
  /// True when the request kind is stateful (update/subscribe) and must be
  /// computed against a session, never admitted, cached or memoized.
  static bool is_session_kind(RequestKind kind) noexcept;
  /// Session pipeline: computes against `session` on the calling thread
  /// (400 when nullptr) and returns the full response envelope.
  /// `enqueued` is when a pool job was posted for it (nullopt = inline, no
  /// queue wait).
  std::string session_response(
      const Request& request, StreamSession* session,
      std::optional<Clock::time_point> enqueued = std::nullopt);
  /// Runs cache lookup + compute for one item and returns its response,
  /// whatever it throws (non-Error exceptions answer 500).
  std::string process(const Item& item);
  /// Result payload for the item (cache consulted for cacheable kinds);
  /// throws past its deadline between stages.
  std::string result_for(const Item& item);

  ServerOptions options_;
  Metrics metrics_;
  ResultCache cache_;
  /// Admitted pool jobs not yet started, bounded by queue_depth.
  std::atomic<std::size_t> waiting_{0};
  par::ThreadPool pool_;  // last member: joins while the rest still exist
};

}  // namespace hetero::svc
