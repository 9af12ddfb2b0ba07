#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "base/error.hpp"

namespace {

using hetero::ValueError;
using hetero::par::parallel_for;
using hetero::par::ThreadPool;

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, PostedJobsAllRun) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.post([&counter] { ++counter; });
  }  // the destructor drains posted jobs too
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThrowingPostedJobLeavesWorkerAlive) {
  // One worker: if the throw killed it (or the process), the next jobs
  // could never run.
  ThreadPool pool(1);
  pool.post([] { throw std::bad_alloc(); });
  pool.post([] { throw ValueError("boom"); });
  pool.post([] { throw 7; });
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, GrainBatching) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(pool, 0, 100,
               [&](std::size_t i) { sum += static_cast<long>(i); }, 7);
  EXPECT_EQ(sum.load(), 99L * 100 / 2);
}

TEST(ParallelFor, ZeroGrainRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(pool, 0, 1, [](std::size_t) {}, 0), ValueError);
}

TEST(ParallelFor, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("bad");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ResultsMatchSerial) {
  ThreadPool pool(3);
  std::vector<double> parallel_out(500), serial_out(500);
  const auto f = [](std::size_t i) {
    return std::sin(static_cast<double>(i)) * 2.0;
  };
  parallel_for(pool, 0, parallel_out.size(),
               [&](std::size_t i) { parallel_out[i] = f(i); }, 13);
  for (std::size_t i = 0; i < serial_out.size(); ++i) serial_out[i] = f(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelFor, FirstExceptionWinsDeterministically) {
  // Chunks are claimed dynamically, but the implementation keeps only the
  // failure with the lowest iteration index, so when several iterations
  // throw, that one is rethrown — regardless of which worker finished
  // first.
  ThreadPool pool(4);
  try {
    parallel_for(pool, 0, 8, [](std::size_t i) {
      if (i == 0) throw ValueError("lowest-index failure");
      if (i == 7) throw std::runtime_error("late failure");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const ValueError& e) {
    EXPECT_STREQ(e.what(), "lowest-index failure");
  }
  // The pool stays usable after a failed run.
  std::atomic<int> ran{0};
  parallel_for(pool, 0, 16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, RepeatedRunsClaimEveryChunkExactlyOnce) {
  // Stress the atomic work-claiming fast path: many back-to-back runs with
  // a range that does not divide evenly by the grain. Every iteration must
  // execute exactly once per run (checked via the exact sum), and the pool
  // must be reusable immediately after the caller returns.
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    parallel_for(pool, 0, kN,
                 [&](std::size_t i) { sum += static_cast<long>(i); }, 3);
    ASSERT_EQ(sum.load(), static_cast<long>(kN) * (kN - 1) / 2);
  }
}

TEST(ParallelFor, StatefulBodyIsNotCopied) {
  // The fast path passes the caller's functor by address (no per-chunk
  // std::function copies), so mutable state observed through a reference
  // capture reflects every iteration.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  auto body = [&hits](std::size_t i) { ++hits[i]; };
  parallel_for(pool, 0, hits.size(), body, 5);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, GrainLargerThanRange) {
  ThreadPool pool(2);
  std::vector<int> hits(5, 0);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { ++hits[i]; }, 1000);
  EXPECT_EQ(hits, std::vector<int>(5, 1));
}

TEST(ParallelFor, EmptyRangeWithLargeGrainIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  parallel_for(pool, 3, 3, [&](std::size_t) { ++ran; }, 64);
  parallel_for(pool, 5, 2, [&](std::size_t) { ++ran; }, 64);
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
