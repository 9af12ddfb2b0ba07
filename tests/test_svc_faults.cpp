// Allocation-failure tests for the service's pool jobs: a std::bad_alloc
// (or any exception that is not a hetero::Error) thrown while a pool
// worker computes must still answer the client — with a 500 — instead of
// vanishing with the job. Runs under the svc_equiv ctest label.
//
// The binary replaces the global allocation functions so a test can arm a
// one-shot failure: the next allocation of at least `g_fail_at_least`
// bytes, on any thread, throws std::bad_alloc. Every non-aligned form is
// replaced so each allocation and its release pair up under sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>

#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "io/json.hpp"
#include "pool_gate.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

namespace {

std::atomic<std::size_t> g_fail_at_least{0};  // 0 = disarmed

void* allocate(std::size_t n) {
  std::size_t armed = g_fail_at_least.load(std::memory_order_relaxed);
  if (armed != 0 && n >= armed &&
      g_fail_at_least.compare_exchange_strong(armed, 0))
    throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace svc = hetero::svc;
namespace io = hetero::io;

// Larger than any response or bookkeeping string these tests make, smaller
// than the matrices their compute allocates.
constexpr std::size_t kFailAtLeast = 8192;

std::string matrix_json(std::uint64_t seed) {
  hetero::etcgen::Rng rng(seed);
  hetero::etcgen::RangeBasedOptions options;
  options.tasks = 64;
  options.machines = 32;
  return io::to_json(hetero::etcgen::generate_range_based(options, rng));
}

/// Collects one response; waits at most 10 s for it.
class Answer {
 public:
  svc::ResponseFn callback() {
    return [this](std::string r) {
      const std::scoped_lock lock(mutex_);
      response_ = std::move(r);
      ++count_;
      cv_.notify_all();
    };
  }

  std::string wait() {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(10), [this] { return count_ > 0; });
    return response_;
  }

  int count() {
    const std::scoped_lock lock(mutex_);
    return count_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string response_;
  int count_ = 0;
};

bool is_internal_error(const std::string& response) {
  return response.find("\"ok\":false") != std::string::npos &&
         response.find("\"code\":500") != std::string::npos &&
         response.find("bad_alloc") != std::string::npos;
}

TEST(SvcFaults, BadAllocInComputeAnswers500) {
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  Answer answer;
  {
    // The parse runs on this thread before the gate opens; the failure is
    // armed only once the request waits on the pool.
    hetero::testing::PoolGate gate(server.pool());
    const std::string line =
        "{\"id\":3,\"kind\":\"characterize\",\"etc\":" + matrix_json(1) + "}";
    ASSERT_FALSE(server.submit(line, answer.callback()).has_value());
    g_fail_at_least.store(kFailAtLeast);
  }
  const std::string got = answer.wait();
  g_fail_at_least.store(0);
  EXPECT_EQ(got.rfind("{\"id\":3,", 0), 0u) << got;
  EXPECT_TRUE(is_internal_error(got)) << got;
  EXPECT_EQ(
      server.metrics().kind(svc::RequestKind::characterize).errors.load(), 1u);

  // The worker survived, and the failure was not cached.
  Answer again;
  const std::string line =
      "{\"id\":4,\"kind\":\"characterize\",\"etc\":" + matrix_json(1) + "}";
  ASSERT_FALSE(server.submit(line, again.callback()).has_value());
  const std::string ok = again.wait();
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_EQ(answer.count(), 1);
}

TEST(SvcFaults, BadAllocInSessionJobAnswers500) {
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  const auto session = std::make_shared<svc::StreamSession>();
  Answer answer;
  {
    hetero::testing::PoolGate gate(server.pool());
    svc::Server::SubmitInfo info;
    const auto inline_response = server.submit(
        "{\"id\":8,\"kind\":\"subscribe\",\"etc\":" + matrix_json(2) + "}",
        answer.callback(), nullptr, 0, &info, session);
    ASSERT_FALSE(inline_response.has_value());
    EXPECT_TRUE(info.session_op);
    g_fail_at_least.store(kFailAtLeast);
  }
  const std::string got = answer.wait();
  g_fail_at_least.store(0);
  EXPECT_EQ(got.rfind("{\"id\":8,", 0), 0u) << got;
  EXPECT_TRUE(is_internal_error(got)) << got;
  EXPECT_EQ(answer.count(), 1);
}

}  // namespace
