// The long-running characterization server: admission control, sharded
// result cache, metrics, and the worker pipeline tying them together.
//
// One Server owns one par::ThreadPool. submit() parses and admits a
// request on the calling thread (parse errors and queue-full rejections
// respond immediately), then hands it to the pool: exactly one worker job
// is enqueued per admitted request, so the pool is never blocked by an
// idle drain loop. Workers pop FIFO, re-check the deadline, consult the
// result cache, and compute on miss. Every submitted request receives
// exactly one response — overload produces an explicit 429-style error,
// never a silent drop.
//
// Front ends: serve_stream() speaks newline-delimited JSON over any
// istream/ostream pair (the stdin/stdout mode of hetero_served); TCP is
// served by svc::EventLoopServer (event_loop.hpp), which runs the same
// per-line protocol over each socket through submit_fast(). Session
// requests (subscribe/update) from submit_fast also run on the pool, one
// job per request; the front end keeps them in order per connection.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "parallel/thread_pool.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/request_queue.hpp"
#include "svc/result_cache.hpp"

namespace hetero::svc {

class StreamSession;

struct ServerOptions {
  /// Worker threads; 0 = hardware_concurrency.
  std::size_t threads = 0;
  /// Admission-control depth: requests beyond this many queued are
  /// rejected with kErrQueueFull.
  std::size_t queue_depth = 256;
  /// Result-cache geometry (shards rounded up to a power of two).
  std::size_t cache_shards = 16;
  std::size_t cache_capacity_per_shard = 64;
  /// Applied when a request carries no deadline_ms; zero = no deadline.
  std::chrono::milliseconds default_deadline{0};
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Closes admission and drains every already-admitted request (each gets
  /// its response) before the workers join.
  ~Server();

  /// Asynchronous entry point: parses, admits, and dispatches one request
  /// line (borrowed for the duration of the call; nothing retains it).
  /// `respond` is invoked exactly once — on the calling thread for
  /// parse errors, admission rejections, and stateful session requests
  /// (update/subscribe, computed inline against `session`), on a worker
  /// otherwise. It may be invoked concurrently with other requests'
  /// callbacks and must be thread-safe across requests. `session` nullptr
  /// means the front end has no per-connection session; update/subscribe
  /// then answer 400.
  void submit(const std::string& line, ResponseFn respond,
              StreamSession* session = nullptr);

  /// What submit_fast did with the request, for front ends that cache or
  /// account responses without re-parsing the line (the event loop's
  /// raw-line memo and per-kind metrics).
  struct FastPathInfo {
    RequestKind kind = RequestKind::invalid;
    /// The returned response is a warm cache hit served inline (true only
    /// when a value was returned and it is an ok response from the cache).
    bool inline_hit = false;
    /// The request carried a deadline (explicit or default) — its outcome
    /// is time-dependent and must not be memoized.
    bool had_deadline = false;
    /// A session request (update/subscribe) went to the pool: the caller
    /// must not dispatch this connection's next frame until `respond` has
    /// fired, so the session sees its requests in arrival order.
    bool session_op = false;
  };

  /// Event-loop entry point. Returns the response when it can be produced
  /// without the worker pool — parse errors (400), admission rejections
  /// (429), expired-on-arrival deadlines (408), and warm cache hits served
  /// inline on the calling thread; otherwise admits the request (with its
  /// content hash precomputed into the queue item) and returns nullopt,
  /// and `respond` fires exactly once on a pool worker. `respond` is never
  /// invoked when a value is returned.
  ///
  /// Warm hits are served inline only for cache shards the calling worker
  /// owns under `shard_map` (nullptr = own everything): each shard's mutex
  /// then stays on one loop thread in the steady state, so warm throughput
  /// scales with workers instead of bouncing a lock. Non-owned shards take
  /// the queue path and still hit the cache on the pool worker, so the
  /// response bytes are identical either way.
  /// Stateful session requests (update/subscribe) are posted to the pool
  /// as one job that computes against `session` (which the job keeps
  /// alive) and fires `respond` — info->session_op is then set. They are
  /// answered inline with a 400 when `session` is null. inline_hit stays
  /// false either way, so a memoizing front end never replays them.
  std::optional<std::string> submit_fast(
      const std::string& line, ResponseFn respond,
      const ShardMap* shard_map = nullptr, std::size_t worker_index = 0,
      FastPathInfo* info = nullptr,
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
  /// in-flight request has been answered.
  void serve_stream(std::istream& in, std::ostream& out);

  Metrics& metrics() noexcept { return metrics_; }
  ResultCache& cache() noexcept { return cache_; }
  RequestQueue& queue() noexcept { return queue_; }
  par::ThreadPool& pool() noexcept { return pool_; }

 private:
  /// True when the request kind is stateful (update/subscribe) and must be
  /// computed against a session, never queued/cached/memoized.
  static bool is_session_kind(RequestKind kind) noexcept;
  /// Session pipeline: computes against `session` on the calling thread
  /// (400 when nullptr) and returns the full response envelope.
  /// `enqueued` is when a pool job was posted for it (nullopt = inline, no
  /// queue wait).
  std::string session_response(
      const Request& request, StreamSession* session,
      std::optional<std::chrono::steady_clock::time_point> enqueued =
          std::nullopt);
  /// Runs cache lookup + compute for one popped item and responds —
  /// exactly once, whatever it throws (non-Error exceptions answer 500).
  void process(const QueuedItem& item);
  /// Result payload for `request` (cache consulted for cacheable kinds);
  /// throws past `deadline` between stages. `key` is the precomputed
  /// content hash when the front end already hashed the request.
  std::string result_for(const Request& request,
                         std::chrono::steady_clock::time_point deadline,
                         std::optional<std::uint64_t> key);
  void drain_one();

  ServerOptions options_;
  Metrics metrics_;
  ResultCache cache_;
  RequestQueue queue_;
  par::ThreadPool pool_;  // last member: joins while the rest still exist
};

}  // namespace hetero::svc
