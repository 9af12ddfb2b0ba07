#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "base/error.hpp"

namespace hetero::par {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0)
    thread_count = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i)
    workers_.emplace_back(
        [this](const std::stop_token& stop) { worker_loop(stop); });
}

ThreadPool::~ThreadPool() {
  {
    // Stop flags and the wakeup are published under the queue mutex: a
    // worker is either inside the locked predicate check (it will see the
    // flag) or waiting (it will get the notify), so no wakeup is missed.
    const support::MutexLock lock(mutex_);
    for (auto& w : workers_) w.request_stop();
    cv_.notify_all();
  }
  // jthread destructors join; worker_loop drains the queue before exiting.
}

void ThreadPool::worker_loop(const std::stop_token& stop) {
  while (true) {
    std::function<void()> job;
    {
      support::MutexLock lock(mutex_);
      while (queue_.empty() && !stop.stop_requested()) cv_.wait(lock);
      if (queue_.empty()) return;  // stop requested and no work left
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // submit() jobs capture their own exceptions in the future; a posted
    // job's escaping exception has no waiter to go to and must not take
    // the worker thread (and with it the process) down: it is dropped.
    try {
      job();
    } catch (...) {
    }
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

namespace {

// Shared state of one parallel_for call. Stack-allocated in the caller;
// helpers are joined (helpers_running reaches 0 under the mutex) before
// the caller returns, so no helper can outlive it.
struct ClaimState {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t grain = 1;
  void (*body)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;

  support::Mutex mutex{support::kRankParallelForState, "parallel-for-state"};
  support::CondVar cv;
  std::size_t helpers_running HETERO_GUARDED_BY(mutex) = 0;
  std::size_t error_index HETERO_GUARDED_BY(mutex) =
      static_cast<std::size_t>(-1);
  std::exception_ptr error HETERO_GUARDED_BY(mutex);

  // Claims and runs chunks until the range is exhausted. A throwing
  // iteration aborts its chunk but not the range; the failure with the
  // lowest iteration index is kept for the caller to rethrow.
  void run_chunks() {
    for (;;) {
      const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + grain);
      std::size_t i = lo;
      try {
        for (; i < hi; ++i) body(ctx, i);
      } catch (...) {
        const support::MutexLock lock(mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  }

  // One helper's whole job; keeps guarded state out of the posted lambda.
  void run_as_helper() {
    run_chunks();
    const support::MutexLock lock(mutex);
    if (--helpers_running == 0) cv.notify_all();
  }

  void wait_helpers() {
    support::MutexLock lock(mutex);
    while (helpers_running != 0) cv.wait(lock);
  }
};

}  // namespace

void detail::parallel_for_impl(ThreadPool& pool, std::size_t begin,
                               std::size_t end, std::size_t grain,
                               void (*body)(void*, std::size_t), void* ctx) {
  hetero::detail::require_value(grain > 0,
                                "parallel_for: grain must be positive");
  if (begin >= end) return;

  ClaimState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.grain = grain;
  state.body = body;
  state.ctx = ctx;

  // The caller claims chunks too, so at most chunks - 1 helpers are useful.
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  const std::size_t helpers = std::min(pool.thread_count(), chunks - 1);
  {
    const support::MutexLock lock(state.mutex);
    state.helpers_running = helpers;
  }
  for (std::size_t w = 0; w < helpers; ++w)
    pool.post([&state] { state.run_as_helper(); });

  state.run_chunks();
  if (helpers > 0) state.wait_helpers();
  // All helpers joined above, but the lock keeps the read inside the
  // guarded discipline (and publishes any helper's final store).
  std::exception_ptr error;
  {
    const support::MutexLock lock(state.mutex);
    error = std::move(state.error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace hetero::par
