// Minimal fixed-size thread pool (C++20, std::jthread).
//
// Used by the measure-targeted generator's annealing restarts and the
// Monte-Carlo benches. Follows the CppCoreGuidelines concurrency rules:
// joining threads (jthread), no detach, state shared only through the
// mutex-protected queue, exceptions surfaced to the waiter via futures
// (submit) or contained in the worker (post).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace hetero::par {

/// Fixed-size worker pool. Destruction drains outstanding work (submitted
/// tasks always run) and joins every worker.
class ThreadPool {
 public:
  /// Creates `thread_count` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t thread_count = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a fire-and-forget job: no packaged_task, future or shared
  /// state is allocated. An exception escaping `f` is dropped and the
  /// worker stays alive for the next job, so a job that owes someone an
  /// answer must catch its own failures.
  template <typename F>
  void post(F&& f) {
    {
      const support::MutexLock lock(mutex_);
      queue_.emplace_back(std::forward<F>(f));
    }
    cv_.notify_one();
  }

  /// Enqueues a callable; the future delivers its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const support::MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop(const std::stop_token& stop);

  support::Mutex mutex_{support::kRankPoolQueue, "pool-queue"};
  support::CondVar cv_;
  std::deque<std::function<void()>> queue_ HETERO_GUARDED_BY(mutex_);
  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

/// Process-wide shared pool (hardware_concurrency workers), constructed
/// lazily on first use and joined at static destruction. The large-matrix
/// characterization paths fall back to it when the caller does not pass an
/// explicit pool; callers that want a bounded thread budget (or bitwise
/// reproduction of a specific run) construct their own ThreadPool and pass
/// it down instead — results are thread-count-invariant either way.
ThreadPool& shared_pool();

namespace detail {

/// Type-erased core of parallel_for: chunked atomic work claiming with no
/// per-chunk heap allocation. `body(ctx, i)` runs iteration i.
void parallel_for_impl(ThreadPool& pool, std::size_t begin, std::size_t end,
                       std::size_t grain, void (*body)(void*, std::size_t),
                       void* ctx);

}  // namespace detail

/// Runs f(i) for i in [begin, end) and blocks until all iterations finish.
///
/// Fast path: instead of enqueuing one heap-allocated closure per chunk,
/// the range is claimed in `grain`-sized chunks off a shared atomic
/// counter. At most thread_count() helper jobs are enqueued (each a single
/// small allocation), and the calling thread claims chunks too, so the
/// range completes even when the pool is busy. Exceptions from iterations
/// are collected and the one thrown by the lowest iteration index is
/// rethrown after the whole range has been attempted (iterations after a
/// throw within the same chunk are skipped, matching the pre-claiming
/// behavior).
template <typename F>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  F&& f, std::size_t grain = 1) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_for_impl(
      pool, begin, end, grain,
      [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(f))));
}

}  // namespace hetero::par
