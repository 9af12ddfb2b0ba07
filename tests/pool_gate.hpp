// Test helpers for pinning down work that sits on a par::ThreadPool.
//
// PoolGate parks one job on the pool that blocks until release(): on a
// one-thread pool every job posted after it waits in the queue, so a test
// can act (close a connection, arm a fault) while an operation is known
// to be queued but not yet run. Declare the gate after the pool's owner so
// its destructor releases the pool before the owner joins it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace hetero::testing {

class PoolGate {
 public:
  explicit PoolGate(par::ThreadPool& pool) {
    // The job shares the state, so it may still be returning from its
    // wait after the gate object is gone.
    pool.post([state = state_] {
      std::unique_lock lock(state->mutex);
      state->entered = true;
      state->cv.notify_all();
      state->cv.wait(lock, [&] { return state->open; });
    });
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock, [this] { return state_->entered; });
  }

  ~PoolGate() { release(); }

  PoolGate(const PoolGate&) = delete;
  PoolGate& operator=(const PoolGate&) = delete;

  void release() {
    const std::scoped_lock lock(state_->mutex);
    state_->open = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Polls `done` every millisecond until it holds or `limit` passes;
/// returns its final value.
inline bool wait_until(const std::function<bool()>& done,
                       std::chrono::milliseconds limit =
                           std::chrono::milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace hetero::testing
