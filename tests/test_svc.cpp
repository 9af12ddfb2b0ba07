// Service-layer tests: sharded result cache, protocol, metrics, and the
// server pipeline (admission control, FIFO dispatch, deadlines) —
// including the contention suites the `svc_equiv` ctest label runs under
// HETERO_SANITIZE=thread, and the bit-identity contract between cached and
// cold responses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "io/json.hpp"
#include "pool_gate.hpp"
#include "sched/heuristics.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/result_cache.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

namespace {

namespace svc = hetero::svc;
namespace io = hetero::io;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;

EtcMatrix test_matrix(std::size_t tasks, std::size_t machines,
                      std::uint64_t seed) {
  hetero::etcgen::Rng rng(seed);
  hetero::etcgen::RangeBasedOptions options;
  options.tasks = tasks;
  options.machines = machines;
  return hetero::etcgen::generate_range_based(options, rng);
}

std::string request_line(const EtcMatrix& etc, const std::string& kind,
                         const std::string& extra = {}) {
  return "{\"kind\":\"" + kind + "\"" + extra +
         ",\"etc\":" + io::to_json(etc) + "}";
}

/// Synchronous submit: returns the inline answer, or blocks until the
/// response callback fires.
std::string call(svc::Server& server, const std::string& line) {
  std::mutex m;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  auto inline_response = server.submit(line, [&](std::string r) {
    // Notify under the lock: the caller destroys cv as soon as done flips.
    const std::scoped_lock lock(m);
    response = std::move(r);
    done = true;
    cv.notify_one();
  });
  if (inline_response) return *std::move(inline_response);
  std::unique_lock lock(m);
  cv.wait(lock, [&] { return done; });
  return response;
}

// ---------------------------------------------------------------------------
// ContentHasher / cache keys.

TEST(SvcCacheKey, DistinguishesContent) {
  const auto etc_a = test_matrix(8, 4, 1);
  const auto etc_b = test_matrix(8, 4, 2);
  svc::Request a, b;
  a.kind = b.kind = svc::RequestKind::characterize;
  a.etc = etc_a;
  b.etc = etc_b;
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
  b.etc = etc_a;
  EXPECT_EQ(svc::cache_key(a), svc::cache_key(b));
  // Kind participates: a measures request on the same matrix is distinct.
  b.kind = svc::RequestKind::measures;
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
}

TEST(SvcCacheKey, ScheduleOptionsParticipate) {
  const auto etc = test_matrix(6, 3, 3);
  svc::Request a;
  a.kind = svc::RequestKind::schedule;
  a.etc = etc;
  a.heuristic = "min_min";
  svc::Request b = a;
  b.heuristic = "max_min";
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
  b = a;
  b.tasks = {0, 1, 2};
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
  b = a;
  b.seed = 99;
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
}

TEST(SvcCacheKey, LabelsParticipate) {
  Matrix values{{1, 2}, {3, 4}};
  svc::Request a, b;
  a.kind = b.kind = svc::RequestKind::characterize;
  a.etc = EtcMatrix(values, {"a", "b"}, {"x", "y"});
  b.etc = EtcMatrix(values, {"a", "b"}, {"x", "z"});
  EXPECT_NE(svc::cache_key(a), svc::cache_key(b));
}

// Keys tell apart every input the result depends on, down to the bits of
// one entry. -0 cannot reach a request (entries must be positive), so the
// sign of zero is checked on the hasher itself.
TEST(SvcCacheKey, Sensitivity) {
  const auto key = [](const Matrix& values) {
    svc::Request r;
    r.kind = svc::RequestKind::characterize;
    r.etc = EtcMatrix(values);
    return svc::cache_key(r);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> data = {1, 2, 3, 4, 5, 6};
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_NE(key(a), key(Matrix{{2, 1, 3}, {4, 5, 6}}));
  EXPECT_NE(key(a), key(Matrix{{1, 2, 3}, {4, 6, 5}}));
  EXPECT_NE(key(Matrix::from_row_major(2, 3, data)),
            key(Matrix::from_row_major(3, 2, data)));
  EXPECT_NE(key(Matrix{{inf, 2}, {3, 4}}),
            key(Matrix{{std::numeric_limits<double>::max(), 2}, {3, 4}}));
  EXPECT_NE(key(Matrix{{1, 2}, {3, 4}}),
            key(Matrix{{1, std::nextafter(2.0, 3.0)}, {3, 4}}));
  EXPECT_NE(svc::ContentHasher().add_double(-0.0).digest(),
            svc::ContentHasher().add_double(0.0).digest());
  EXPECT_NE(svc::ContentHasher().add_u64(1).add_u64(2).digest(),
            svc::ContentHasher().add_u64(2).add_u64(1).digest());
  EXPECT_NE(svc::ContentHasher().add_string("ab").add_string("c").digest(),
            svc::ContentHasher().add_string("a").add_string("bc").digest());
  EXPECT_NE(svc::ContentHasher().add_string("a").digest(),
            svc::ContentHasher().add_string(std::string("a\0", 2)).digest());
  EXPECT_NE(svc::ContentHasher().add_string("0123456789").digest(),
            svc::ContentHasher().add_string("0123456788").digest());

  svc::Request base;
  base.kind = svc::RequestKind::schedule;
  base.etc = EtcMatrix(Matrix{{1, 2}, {3, 4}}, {"a", "b"}, {"x", "y"});
  base.heuristic = "min_min";
  const auto differs = [&](const char* what, auto change) {
    svc::Request other = base;
    change(other);
    EXPECT_NE(svc::cache_key(base), svc::cache_key(other)) << what;
  };
  differs("task label", [](svc::Request& r) {
    r.etc = EtcMatrix(Matrix{{1, 2}, {3, 4}}, {"a", "c"}, {"x", "y"});
  });
  differs("machine label", [](svc::Request& r) {
    r.etc = EtcMatrix(Matrix{{1, 2}, {3, 4}}, {"a", "b"}, {"y", "x"});
  });
  differs("kind", [](svc::Request& r) { r.kind = svc::RequestKind::measures; });
  differs("heuristic", [](svc::Request& r) { r.heuristic = "max_min"; });
  differs("seed", [](svc::Request& r) { r.seed = 2; });
  differs("tasks", [](svc::Request& r) { r.tasks = {0, 1}; });
  base.tasks = {0, 1};
  differs("task order", [](svc::Request& r) { r.tasks = {1, 0}; });
  base.kind = svc::RequestKind::whatif;
  differs("whatif machines",
          [](svc::Request& r) { r.whatif_machines = false; });
  differs("whatif tasks", [](svc::Request& r) { r.whatif_tasks = false; });
}

// ---------------------------------------------------------------------------
// ResultCache.

TEST(SvcResultCache, HitMissAndStats) {
  svc::ResultCache cache(4, 8);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_FALSE(cache.probe(1).has_value());  // a probe's miss is not counted
  cache.put(1, "one");
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(*cache.get(1), "one");
  EXPECT_EQ(cache.probe(1), std::optional<std::string>("one"));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SvcResultCache, EvictsLeastRecentlyUsed) {
  svc::ResultCache cache(1, 2);  // one shard, two entries
  cache.put(1, "one");
  cache.put(2, "two");
  ASSERT_TRUE(cache.get(1).has_value());  // refresh 1; 2 is now LRU
  cache.put(3, "three");                  // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SvcResultCache, PutOfExistingKeyRefreshesRecency) {
  svc::ResultCache cache(1, 2);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(1, "one");   // refresh, not duplicate
  cache.put(3, "three"); // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SvcResultCache, ShardCountRoundsToPowerOfTwo) {
  svc::ResultCache cache(5, 1);
  EXPECT_EQ(cache.shard_count(), 8u);
  svc::ResultCache one(0, 0);
  EXPECT_EQ(one.shard_count(), 1u);
  one.put(42, "x");  // capacity clamped to 1
  EXPECT_TRUE(one.get(42).has_value());
}

// Multi-threaded hit/miss storm: readers and writers race over a small
// keyspace; under TSan this is the data-race check for the sharded lock
// scheme, and the final state must be coherent (values match their keys).
TEST(SvcResultCache, ConcurrentStormIsCoherent) {
  svc::ResultCache cache(8, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      for (int i = 0; i < kOpsPerThread; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t key = (x >> 33) % 64;
        if (x & 1) {
          cache.put(key, std::to_string(key));
        } else if (const auto hit = cache.get(key)) {
          if (*hit != std::to_string(key)) mismatch.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries + stats.evictions,
            stats.misses == 0 ? stats.entries : stats.entries + stats.evictions);
  EXPECT_LE(stats.entries, 8u * 4u);
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(SvcProtocol, ParsesFullRequest) {
  const auto request = svc::parse_request(
      "{\"id\":7,\"kind\":\"schedule\",\"heuristic\":\"min_min\","
      "\"tasks\":[0,1,1],\"deadline_ms\":250,"
      "\"etc\":{\"tasks\":[\"a\",\"b\"],\"machines\":[\"x\",\"y\"],"
      "\"etc\":[[1,2],[3,null]]}}");
  EXPECT_EQ(request.kind, svc::RequestKind::schedule);
  EXPECT_EQ(request.id_json, "7");
  EXPECT_EQ(request.heuristic, "min_min");
  EXPECT_EQ(request.tasks, (hetero::sched::TaskList{0, 1, 1}));
  ASSERT_TRUE(request.deadline.has_value());
  EXPECT_EQ(request.deadline->count(), 250);
  ASSERT_TRUE(request.etc.has_value());
  EXPECT_EQ(request.etc->task_count(), 2u);
  EXPECT_TRUE(std::isinf((*request.etc)(1, 1)));  // null -> cannot run
}

TEST(SvcProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(svc::parse_request("not json"), hetero::Error);
  EXPECT_THROW(svc::parse_request("[1,2,3]"), hetero::Error);
  EXPECT_THROW(svc::parse_request("{\"kind\":\"nope\"}"), hetero::Error);
  EXPECT_THROW(svc::parse_request("{\"kind\":\"measures\"}"),
               hetero::Error);  // matrix missing
  EXPECT_THROW(
      svc::parse_request(
          "{\"kind\":\"schedule\",\"etc\":[[1,2],[3,4]]}"),
      hetero::Error);  // heuristic missing
  EXPECT_THROW(
      svc::parse_request("{\"kind\":\"schedule\",\"heuristic\":\"bogus\","
                         "\"etc\":[[1,2],[3,4]]}"),
      hetero::Error);
  EXPECT_THROW(
      svc::parse_request("{\"kind\":\"schedule\",\"heuristic\":\"min_min\","
                         "\"tasks\":[5],\"etc\":[[1,2],[3,4]]}"),
      hetero::Error);  // task index out of range
  EXPECT_THROW(
      svc::parse_request("{\"kind\":\"measures\",\"deadline_ms\":-1,"
                         "\"etc\":[[1,2],[3,4]]}"),
      hetero::Error);
}

/// The 400 message parse_request gives for `line`, or "ok".
std::string request_error(const std::string& line) {
  try {
    svc::parse_request(line);
  } catch (const hetero::Error& e) {
    return e.what();
  }
  return "ok";
}

TEST(SvcProtocol, DeadlineIsBounded) {
  const auto line = [](const std::string& ms) {
    return "{\"id\":1,\"kind\":\"measures\",\"deadline_ms\":" + ms +
           ",\"etc\":[[1,2],[3,4]]}";
  };
  const std::string bound = "deadline_ms must be at most 1e12 (about 31 years)";
  EXPECT_EQ(request_error(line("1e30")), bound);
  EXPECT_EQ(request_error(line("1000000000001")), bound);
  EXPECT_EQ(request_error(line("-1")),
            "deadline_ms must be a nonnegative number");
  EXPECT_EQ(svc::parse_request(line("1e12")).deadline->count(),
            1000000000000);
  // End to end: a huge deadline is a bad request, not an expired one, and
  // the largest accepted one leaves plenty of time.
  svc::Server server;
  EXPECT_NE(server.handle(line("1e30")).find("\"code\":400"),
            std::string::npos);
  EXPECT_NE(server.handle(line("1e12")).find("\"ok\":true"),
            std::string::npos);
}

TEST(SvcProtocol, ScheduleSeedMustBeAnExactInteger) {
  const auto line = [](const std::string& seed) {
    return "{\"kind\":\"schedule\",\"heuristic\":\"ga\",\"seed\":" + seed +
           ",\"etc\":[[1,2],[3,4]]}";
  };
  for (const char* bad : {"-1", "1e999", "0.5", "\"7\"", "9007199254740994"})
    EXPECT_EQ(request_error(line(bad)),
              "schedule: seed must be an integer in [0, 2^53]")
        << bad;
  EXPECT_EQ(svc::parse_request(line("0")).seed, 0u);
  EXPECT_EQ(svc::parse_request(line("9007199254740992")).seed,
            9007199254740992u);
}

TEST(SvcProtocol, ScheduleTasksMustBeIndices) {
  const auto line = [](const std::string& tasks) {
    return "{\"kind\":\"schedule\",\"heuristic\":\"min_min\",\"tasks\":" +
           tasks + ",\"etc\":[[1,2],[3,4]]}";
  };
  for (const char* bad : {"[0.5,1.9]", "[-1]", "[2]", "[1e999]", "[null]"})
    EXPECT_EQ(request_error(line(bad)), "schedule: task index out of range")
        << bad;
  EXPECT_EQ(request_error(line("[]")),
            "schedule: \"tasks\" must not be empty");
  EXPECT_EQ(svc::parse_request(line("[1,0,1]")).tasks,
            (hetero::sched::TaskList{1, 0, 1}));
}

TEST(SvcProtocol, ComputeSchedulesMatchDirectHeuristics) {
  const auto etc = test_matrix(12, 4, 11);
  for (const char* token : {"min_min", "max_min", "sufferage"}) {
    svc::Request request;
    request.kind = svc::RequestKind::schedule;
    request.etc = etc;
    request.heuristic = token;
    const auto parsed = io::parse_json(svc::compute_result(request));
    const auto summary = io::schedule_summary_from_json(parsed);
    const auto expected = hetero::sched::find_heuristic(token)->map(
        etc, hetero::sched::one_of_each(etc));
    EXPECT_EQ(summary.assignment, expected) << token;
  }
}

TEST(SvcProtocol, GaScheduleIsDeterministicPerSeed) {
  const auto etc = test_matrix(10, 3, 13);
  svc::Request request;
  request.kind = svc::RequestKind::schedule;
  request.etc = etc;
  request.heuristic = "ga";
  request.seed = 5;
  const std::string a = svc::compute_result(request);
  const std::string b = svc::compute_result(request);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(SvcMetrics, HistogramBucketsAndQuantiles) {
  svc::LatencyHistogram h;
  h.record(0);
  h.record(1);
  h.record(100);
  h.record(1000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum_us, 1101u);
  EXPECT_EQ(s.max_us, 1000u);
  EXPECT_DOUBLE_EQ(s.mean_us(), 1101.0 / 4.0);
  // p50 falls in the bucket containing the second sample (1 us -> [1,2)).
  EXPECT_LE(s.quantile_upper_us(0.5), 128u);
  EXPECT_GE(s.quantile_upper_us(1.0), 1000u);
}

TEST(SvcMetrics, KindNamesRoundTrip) {
  for (const auto kind :
       {svc::RequestKind::characterize, svc::RequestKind::measures,
        svc::RequestKind::schedule, svc::RequestKind::whatif,
        svc::RequestKind::stats}) {
    EXPECT_EQ(svc::parse_kind(svc::kind_name(kind)), kind);
  }
  EXPECT_EQ(svc::parse_kind("bogus"), svc::RequestKind::invalid);
  // "invalid" is not a wire kind.
  EXPECT_EQ(svc::parse_kind("invalid"), svc::RequestKind::invalid);
}

TEST(SvcMetrics, SnapshotJsonIsParseable) {
  svc::Metrics metrics;
  metrics.kind(svc::RequestKind::measures)
      .received.fetch_add(3, std::memory_order_relaxed);
  metrics.kind(svc::RequestKind::measures).compute.record(42);
  metrics.count_rejected_full();
  const auto parsed = io::parse_json(svc::to_json(metrics.snapshot()));
  EXPECT_EQ(parsed.at("rejected_full").as_number(), 1.0);
  const auto& measures = parsed.at("kinds").at("measures");
  EXPECT_EQ(measures.at("received").as_number(), 3.0);
  EXPECT_EQ(measures.at("compute").at("count").as_number(), 1.0);
}

// Concurrent recording storm — the lock-free counters must add up exactly.
TEST(SvcMetrics, ConcurrentRecordingIsLossless) {
  svc::Metrics metrics;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto& k = metrics.kind(svc::RequestKind::characterize);
      for (int i = 0; i < kPerThread; ++i) {
        k.received.fetch_add(1, std::memory_order_relaxed);
        k.compute.record(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto s = metrics.snapshot();
  EXPECT_EQ(s.kinds[0].received,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.kinds[0].compute.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Server pipeline.

TEST(SvcServer, CachedResponseBitIdenticalToCold) {
  svc::Server server;
  const auto etc = test_matrix(16, 4, 21);
  for (const std::string kind : {"characterize", "measures", "whatif"}) {
    const std::string line =
        request_line(etc, kind, ",\"id\":1");
    const std::string cold = server.handle(line);
    const std::string cached = server.handle(line);
    EXPECT_EQ(cold, cached) << kind;
    EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  }
  const auto schedule =
      request_line(etc, "schedule", ",\"id\":1,\"heuristic\":\"sufferage\"");
  EXPECT_EQ(server.handle(schedule), server.handle(schedule));
  // Every kind above hit the cache exactly once.
  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(SvcServer, SubmitStormEveryRequestAnsweredAndIdentical) {
  svc::ServerOptions options;
  options.threads = 4;
  options.queue_depth = 4096;  // no admission rejections in this test
  svc::Server server(options);
  std::vector<EtcMatrix> matrices;
  for (std::uint64_t s = 0; s < 4; ++s)
    matrices.push_back(test_matrix(12, 4, 100 + s));
  std::vector<std::string> lines;
  for (const auto& etc : matrices)
    lines.push_back(request_line(etc, "characterize", ",\"id\":0"));

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::mutex m;
  std::vector<std::vector<std::string>> responses(lines.size());
  std::condition_variable done_cv;
  int outstanding = kClients * kPerClient;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t which =
            (static_cast<std::size_t>(c) + static_cast<std::size_t>(i)) %
            lines.size();
        const auto record = [&, which](std::string response) {
          const std::scoped_lock lock(m);
          responses[which].push_back(std::move(response));
          --outstanding;
          done_cv.notify_one();
        };
        if (auto response = server.submit(lines[which], record))
          record(*std::move(response));
      }
    });
  }
  for (auto& client : clients) client.join();
  std::unique_lock lock(m);
  done_cv.wait(lock, [&] { return outstanding == 0; });

  std::size_t total = 0;
  for (std::size_t w = 0; w < responses.size(); ++w) {
    total += responses[w].size();
    ASSERT_FALSE(responses[w].empty());
    for (const auto& r : responses[w]) {
      EXPECT_EQ(r, responses[w].front())
          << "response for matrix " << w << " not bit-identical";
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kClients) * kPerClient);
  // Each request counts once in the cache statistics, and an inline miss
  // is looked up again when its job starts, so identical requests queued
  // behind a compute reuse its result instead of each computing.
  const auto stats = server.cache().stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_GE(stats.hits, stats.misses);  // 4 distinct matrices, 200 requests
  // Every computed result landed in the cache: the storm's lines are now
  // warm hits, answered inline with the bytes the pool produced.
  for (std::size_t w = 0; w < lines.size(); ++w) {
    const auto warm = server.submit(
        lines[w], [](std::string) { FAIL() << "warm hit must answer inline"; });
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(*warm, responses[w].front());
  }
}

TEST(SvcServer, FullQueueRejectsExplicitly) {
  // Deterministic overload: the single worker is parked inside the first
  // request's respond callback, so the flood waits on the pool until
  // `depth` requests are admitted, and the rest are rejected with 429 — no
  // timing dependence. Depth 0 is taken as 1. Every flood line carries its
  // own matrix: a repeated one would be a warm hit, answered inline.
  for (const auto& [depth, admitted] :
       {std::pair<std::size_t, int>{2, 2}, std::pair<std::size_t, int>{0, 1}}) {
    SCOPED_TRACE("queue_depth " + std::to_string(depth));
    std::mutex m;
    std::condition_variable cv;
    bool worker_parked = false;
    bool release_worker = false;
    constexpr int kFlood = 8;
    int outstanding = kFlood;
    int ok = 0, rejected = 0, other = 0;
    const auto tally = [&](const std::string& response) {
      const std::scoped_lock lock(m);
      if (response.find("\"ok\":true") != std::string::npos)
        ++ok;
      else if (response.find("\"code\":429") != std::string::npos)
        ++rejected;
      else
        ++other;
      --outstanding;
      cv.notify_all();
    };

    svc::ServerOptions options;
    options.threads = 1;
    options.queue_depth = depth;
    svc::Server server(options);
    const auto parked = server.submit(
        request_line(test_matrix(8, 4, 31), "characterize", ",\"id\":3"),
        [&](std::string) {
          std::unique_lock lock(m);
          worker_parked = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release_worker; });
        });
    ASSERT_FALSE(parked.has_value());
    {
      std::unique_lock lock(m);
      cv.wait(lock, [&] { return worker_parked; });
    }

    for (int i = 0; i < kFlood; ++i) {
      const std::string line =
          request_line(test_matrix(8, 4, 32 + static_cast<std::uint64_t>(i)),
                       "characterize", ",\"id\":3");
      if (auto response = server.submit(line, tally)) tally(*response);
    }
    {
      // Rejections are answered inline, so the flood loop above already
      // counted them; the admitted requests complete once the worker
      // resumes.
      const std::scoped_lock lock(m);
      EXPECT_EQ(rejected, kFlood - admitted);
      release_worker = true;
      cv.notify_all();
    }
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return outstanding == 0; });
    // Never dropped silently: every request got exactly one response, and
    // overload surfaced as explicit 429s.
    EXPECT_EQ(ok + rejected + other, kFlood);
    EXPECT_EQ(other, 0);
    EXPECT_EQ(ok, admitted);
    EXPECT_EQ(rejected, kFlood - admitted);
    EXPECT_EQ(server.metrics().snapshot().rejected_full,
              static_cast<std::uint64_t>(rejected));
  }
}

// The pool's FIFO is the only request queue: on a one-thread pool,
// admitted requests are answered in the order they were submitted.
TEST(SvcServer, AdmittedRequestsAnsweredInSubmitOrder) {
  std::mutex m;
  std::vector<int> order;
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  constexpr int kRequests = 6;
  {
    hetero::testing::PoolGate gate(server.pool());
    for (int i = 0; i < kRequests; ++i) {
      const std::string line =
          request_line(test_matrix(6, 3, 80 + static_cast<std::uint64_t>(i)),
                       "measures", ",\"id\":" + std::to_string(i));
      const auto response = server.submit(line, [&, i](std::string r) {
        EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
        const std::scoped_lock lock(m);
        order.push_back(i);
      });
      ASSERT_FALSE(response.has_value());
    }
  }
  ASSERT_TRUE(hetero::testing::wait_until([&] {
    const std::scoped_lock lock(m);
    return order.size() == static_cast<std::size_t>(kRequests);
  }));
  const std::scoped_lock lock(m);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SvcServer, ExpiredDeadlineRejectedBeforeDispatch) {
  svc::Server server;
  const std::string line = request_line(
      test_matrix(8, 4, 41), "characterize", ",\"id\":9,\"deadline_ms\":0");
  const std::string response = call(server, line);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"code\":408"), std::string::npos) << response;
  EXPECT_NE(response.find("\"id\":9"), std::string::npos) << response;
  EXPECT_EQ(server.metrics().snapshot().rejected_deadline, 1u);
}

TEST(SvcServer, BadRequestsGetErrorResponses) {
  svc::Server server;
  EXPECT_NE(call(server, "this is not json").find("\"code\":400"),
            std::string::npos);
  EXPECT_NE(call(server, "{\"kind\":\"bogus\"}").find("\"code\":400"),
            std::string::npos);
  const auto snapshot = server.metrics().snapshot();
  EXPECT_EQ(snapshot.kinds.back().errors, 2u);  // the `invalid` slot
}

TEST(SvcServer, StatsRequestReportsTraffic) {
  svc::Server server;
  const auto etc = test_matrix(6, 3, 51);
  call(server, request_line(etc, "measures", ",\"id\":1"));
  call(server, request_line(etc, "measures", ",\"id\":2"));
  const std::string response = call(server, "{\"kind\":\"stats\",\"id\":3}");
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  const auto parsed = io::parse_json(response);
  const auto& measures = parsed.at("result").at("kinds").at("measures");
  EXPECT_EQ(measures.at("received").as_number(), 2.0);
  EXPECT_EQ(measures.at("completed").as_number(), 2.0);
  EXPECT_EQ(measures.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(measures.at("cache_misses").as_number(), 1.0);
}

TEST(SvcServer, ServeStreamAnswersEveryLine) {
  std::istringstream in(
      request_line(test_matrix(5, 3, 61), "measures", ",\"id\":1") + "\n" +
      "garbage\n" +
      request_line(test_matrix(5, 3, 62), "measures", ",\"id\":2") + "\n" +
      "{\"kind\":\"stats\",\"id\":3}\n");
  std::ostringstream out;
  svc::Server server;
  server.serve_stream(in, out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0, ok = 0;
  std::set<std::string> seen;
  while (std::getline(lines, line)) {
    ++count;
    const auto parsed = io::parse_json(line);  // every line well-formed
    if (parsed.at("ok").as_bool()) ++ok;
    seen.insert(io::to_json(parsed.at("id")));
  }
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(ok, 3u);  // the garbage line got a 400
  EXPECT_TRUE(seen.count("1") && seen.count("2") && seen.count("3"));
}

// Destruction with admitted-but-unprocessed work: every response still
// arrives before the destructor returns.
TEST(SvcServer, DestructorDrainsAdmittedWork) {
  std::atomic<int> answered{0};
  {
    svc::ServerOptions options;
    options.threads = 2;
    svc::Server server(options);
    const std::string line =
        request_line(test_matrix(24, 6, 71), "characterize", "");
    for (int i = 0; i < 16; ++i)
      if (server.submit(line, [&](std::string) { answered.fetch_add(1); }))
        answered.fetch_add(1);  // a warm hit, answered inline
  }
  EXPECT_EQ(answered.load(), 16);
}

// ---------------------------------------------------------------------------
// Recorded response bytes. Every line of a seeded corpus is answered by
// Server::handle and reduced to (length, FNV-1a 64) of the response; the
// table was recorded once and pins the protocol bytes — numbers, escapes,
// error messages and byte offsets — so a rewrite of the JSON reader/writer
// or of a payload builder cannot change what a client receives.

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A labelled ETC matrix with a few "cannot run" (null) entries.
EtcMatrix golden_matrix(std::size_t tasks, std::size_t machines,
                        std::uint64_t seed) {
  const EtcMatrix base = test_matrix(tasks, machines, seed);
  Matrix values = base.values();
  values(1, machines - 1) = std::numeric_limits<double>::infinity();
  values(tasks / 2, 0) = std::numeric_limits<double>::infinity();
  values(tasks - 1, machines / 2) = std::numeric_limits<double>::infinity();
  std::vector<std::string> task_names, machine_names;
  for (std::size_t i = 0; i < tasks; ++i)
    task_names.push_back(i % 7 == 3 ? "task \"" + std::to_string(i) + "\"\t"
                                    : "t" + std::to_string(i));
  for (std::size_t j = 0; j < machines; ++j)
    machine_names.push_back(j == 1 ? "m\\\xC3\xA9" : "m" + std::to_string(j));
  return EtcMatrix(std::move(values), std::move(task_names),
                   std::move(machine_names));
}

/// Stateless request lines: every computable kind plus malformed lines.
std::vector<std::string> golden_requests() {
  const EtcMatrix a = golden_matrix(64, 8, 1401);
  const EtcMatrix b = golden_matrix(128, 16, 1402);
  const EtcMatrix small = test_matrix(12, 4, 1403);
  const std::string too_long = "1." + std::string(62, '5');
  return {
      request_line(a, "characterize", ",\"id\":1"),
      request_line(b, "characterize", ",\"id\":\"b-\\\"2\\\"\\u00e9\""),
      request_line(a, "characterize", ",\"id\":3.5"),
      request_line(a, "measures", ",\"id\":null"),
      request_line(b, "measures", ",\"id\":{\"n\":[1e999,-0,1e-400]}"),
      request_line(a, "schedule",
                   ",\"id\":6,\"heuristic\":\"min_min\","
                   "\"tasks\":[0,1,2,5,5,63]"),
      request_line(b, "schedule", ",\"id\":7,\"heuristic\":\"min_min\""),
      request_line(small, "schedule",
                   ",\"id\":8,\"heuristic\":\"ga\",\"seed\":42"),
      request_line(a, "whatif", ",\"id\":9,\"remove\":\"machines\""),
      request_line(small, "whatif", ",\"id\":10,\"remove\":\"tasks\""),
      request_line(small, "whatif", ",\"id\":11"),
      request_line(small, "measures",
                   ",\"id\":[4.9e-324,2.2250738585072011e-308,"
                   "0.10000000000000001,123456789012345678901]"),
      request_line(small, "subscribe", ",\"id\":12"),
      "",
      "{",
      "[1,2]",
      "{\"id\":13,\"kind\":\"nope\"}",
      "{\"id\":14,\"kind\":\"characterize\"}",
      "{\"id\":15,\"kind\":\"measures\",\"etc\":[[1,2],[3]]}",
      "{\"id\":01,\"kind\":\"measures\",\"etc\":[[1]]}",
      "{\"id\":" + too_long + ",\"kind\":\"measures\",\"etc\":[[1]]}",
      "{\"id\":16,\"kind\":\"measures\",\"etc\":[[1,2],[3," +
          std::string(150, '[') + "]]}",
      "{\"id\":17,\"kind\":\"measures\",\"etc\":[[1,2],[3,",
      "{\"id\":18,\"kind\":\"schedule\",\"heuristic\":\"nope\","
      "\"etc\":[[1,2]]}",
      "{\"id\":19,\"kind\":\"whatif\",\"remove\":\"all\",\"etc\":[[1,2]]}",
      "{\"id\":20,\"kind\":\"measures\",\"deadline_ms\":-1,\"etc\":[[1]]}",
      "{\"id\":\"\\ud800\",\"kind\":\"measures\"}",
      "{\"id\":21,\"kind\":\"measures\",\"etc\":[[1.]]}",
      "{\"id\":22,\"kind\":\"measures\",\"etc\":[[-]]}",
      "{\"id\":23,\"kind\":\"measures\",\"etc\":[[0,1e5]]} x",
  };
}

/// A subscribe followed by 30 seeded updates (set, observe, and structural
/// churn), bracketed by session-protocol errors.
std::vector<std::string> golden_session() {
  std::vector<std::string> lines;
  lines.push_back("{\"id\":0,\"kind\":\"update\",\"set\":[]}");
  lines.push_back("{\"id\":1,\"kind\":\"subscribe\",\"etc\":" +
                  io::to_json(test_matrix(16, 6, 1404)) + "}");
  std::size_t tasks = 16, machines = 6;
  std::uint64_t s = 1405;
  const auto next = [&s](std::uint64_t n) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return (s >> 33) % n;
  };
  const auto value = [&] {
    return std::to_string(next(4000) + 1) + "." + std::to_string(next(100));
  };
  for (int k = 0; k < 30; ++k) {
    std::string body;
    switch (k % 6) {
      case 0:
      case 3:
        body = "\"set\":[";
        for (int c = 0; c < 3; ++c)
          body += std::string(c ? "," : "") + "{\"task\":" +
                  std::to_string(next(tasks)) + ",\"machine\":" +
                  std::to_string(next(machines)) + ",\"etc\":" + value() + "}";
        body += "]";
        break;
      case 1:
      case 4:
        body = "\"observe\":[";
        for (int c = 0; c < 4; ++c)
          body += std::string(c ? "," : "") + "{\"task\":" +
                  std::to_string(next(tasks)) + ",\"machine\":" +
                  std::to_string(next(machines)) +
                  ",\"runtime\":" + value() + "}";
        body += "]";
        break;
      case 2: {
        body = "\"add_tasks\":[[";
        for (std::size_t j = 0; j < machines; ++j)
          body += std::string(j ? "," : "") + value();
        body += "]]";
        ++tasks;
        break;
      }
      case 5:
        if (k % 12 == 5) {
          body = "\"remove_tasks\":[" + std::to_string(next(tasks)) + "]";
          --tasks;
        } else {
          body = "\"add_machines\":[[";
          for (std::size_t i = 0; i < tasks; ++i)
            body += std::string(i ? "," : "") + value();
          body += "]]";
          ++machines;
        }
        break;
    }
    lines.push_back("{\"id\":" + std::to_string(k + 2) +
                    ",\"kind\":\"update\"," + body + "}");
  }
  lines.push_back("{\"id\":32,\"kind\":\"update\",\"set\":[{\"task\":999,"
                  "\"machine\":0,\"etc\":1}]}");
  lines.push_back("{\"id\":33,\"kind\":\"update\",\"set\":[{\"task\":0,"
                  "\"machine\":0,\"etc\":-1}]}");
  return lines;
}

struct GoldenBytes {
  std::size_t length;
  std::uint64_t fnv;
};

void expect_golden(const std::vector<std::string>& responses,
                   const std::vector<GoldenBytes>& golden) {
  ASSERT_EQ(responses.size(), golden.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].size(), golden[i].length)
        << "line " << i << ": " << responses[i].substr(0, 200);
    EXPECT_EQ(fnv1a64(responses[i]), golden[i].fnv)
        << "line " << i << ": " << responses[i].substr(0, 200);
  }
}

TEST(SvcGolden, RequestResponsesMatchRecordedBytes) {
  svc::Server server;
  std::vector<std::string> responses;
  for (const std::string& line : golden_requests())
    responses.push_back(server.handle(line));
  const std::vector<GoldenBytes> golden = {
      {2611, 0xdfb4cdd0d0b0c2d9ull},
      {4747, 0xdf9b442a405822beull},
      {2613, 0x628820ffcaed8506ull},
      {109, 0xcb9ef80267cc7d4cull},
      {123, 0x28826df4d4ea2b38ull},
      {244, 0x3d564c9db2ec648bull},
      {719, 0x1fdb7e4d4ae59f97ull},
      {209, 0xd0bf3db94397893full},
      {1737, 0x215821443cb5bd26ull},
      {2563, 0x04337059ebf6d410ull},
      {3414, 0x1768f53923e722adull},
      {198, 0xce55ebf94d4971a6ull},
      {105, 0x6483bb6d52e3dd38ull},
      {107, 0xf5f84712a1f9a3afull},
      {107, 0x9ccd25ed87af6af4ull},
      {85, 0x385a6798d3c2df81ull},
      {85, 0xa684d35d24cf91cdull},
      {87, 0x6014d7311e15de20ull},
      {77, 0x90472f10930fee11ull},
      {113, 0x35a74e39d16cc690ull},
      {106, 0x311bf685c301140dull},
      {102, 0x965ba8b86ecbb87aull},
      {108, 0x25d83777cce3a05eull},
      {92, 0x2a31125209519075ull},
      {102, 0xd146e4cbd73bb5a8ull},
      {96, 0x7c6ae180d662fdd1ull},
      {104, 0x5510cfcc70357188ull},
      {120, 0x0521b74632a42afcull},
      {99, 0x1786155ecac428f1ull},
      {121, 0x499e28c818cb9379ull},
  };
  expect_golden(responses, golden);
}

TEST(SvcGolden, SessionResponsesMatchRecordedBytes) {
  svc::Server server;
  svc::StreamSession session;
  std::vector<std::string> responses;
  for (const std::string& line : golden_session())
    responses.push_back(server.handle(line, &session));
  const std::vector<GoldenBytes> golden = {
      {134, 0x53c34a1da0d117a0ull},
      {231, 0x0bb1c98751a41c41ull},
      {231, 0x2a77e33a639ae8d3ull},
      {230, 0x68716dbf836ca35aull},
      {230, 0x296135152d4faf1full},
      {230, 0xda71fab7dd96cf3aull},
      {231, 0x8154bb2e467815c3ull},
      {231, 0x77a2d863b4eff0e5ull},
      {231, 0xbbd28a3d57be9a2aull},
      {231, 0xd7d8e308de9be4f3ull},
      {232, 0x1d5abb98a5365528ull},
      {234, 0x67a44b18d77622eeull},
      {234, 0x503135df8dbc790bull},
      {234, 0x19d82a61592f7449ull},
      {234, 0xb39b7039c7b90f7bull},
      {233, 0x519f6670866af78full},
      {234, 0x80bbd043cdc2de42ull},
      {234, 0x0c9e1848b2c7b4c4ull},
      {232, 0x15278e5cf145320cull},
      {233, 0x1f0d540b04fb26a8ull},
      {234, 0x9bbc6351fe2e50fbull},
      {234, 0x83354b98cf27ccd5ull},
      {234, 0xeedbf90d42e66455ull},
      {234, 0x77105e4fc5c83199ull},
      {234, 0x10d3f15b2221e40eull},
      {233, 0xa85987d0d6e8446bull},
      {234, 0x14ef6ab2702657a6ull},
      {234, 0x3b2851720f67312cull},
      {232, 0xcd6dd594c7feaa03ull},
      {234, 0xda105600224c84edull},
      {234, 0xef8ec000548da22aull},
      {234, 0x843af60a0a40bd80ull},
      {103, 0xc0cd674a0d206874ull},
      {112, 0xefb4a72c02a1b219ull},
  };
  expect_golden(responses, golden);
}

/// Base lines for the mutation corpus: both matrix forms, "etc" before and
/// after "kind", a duplicate "etc" (the first wins), "etc" on a kind that
/// ignores it, and a subscribe (same matrix reader, session path).
std::vector<std::string> mutation_bases() {
  const EtcMatrix labelled = golden_matrix(6, 4, 1406);
  const std::string rows = "[[12.5,3,7e1,null],[4,-0.25,1e-3,8],[0,2,3,4]]";
  return {
      "{\"id\":1,\"kind\":\"measures\",\"etc\":[[3,1.5,9],[2,4e0,6],"
      "[7.25,null,1]]}",
      request_line(labelled, "characterize", ",\"id\":2"),
      "{\"etc\":[[120,60,30],[45,50,48],[300,80,240]],\"kind\":\"measures\","
      "\"id\":3}",
      "{\"id\":4,\"kind\":\"measures\",\"etc\":[[1,2],[3,4]],\"etc\":" + rows +
          "}",
      "{\"id\":5,\"kind\":\"stats\",\"etc\":" + rows + "}",
      "{\"id\":6,\"kind\":\"whatif\",\"etc\":{\"machines\":[\"a\",\"b\"],"
      "\"etc\":[[1,2],[3,4],[5,6]],\"tasks\":[\"x\",\"y\",\"z\"]}}",
      "{\"id\":7,\"kind\":\"subscribe\",\"etc\":[[5,2.5],[1,3]]}",
  };
}

/// One seeded mutation: a bit flip, an inserted or deleted token, an
/// element replaced by another value, or a truncation.
std::string mutate(std::string line, std::uint64_t& s) {
  const auto next = [&s](std::uint64_t n) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>((s >> 33) % n);
  };
  static const std::string kTokens[] = {
      ",", "[", "]", "-", ".", "e", "null", "\"x\"", std::string(130, '[')};
  // Stand-ins for one element: they reach the matrix's semantic errors (a
  // non-number, an empty or non-array row, a non-string label) without
  // breaking the document's syntax.
  static const std::string kValues[] = {
      "\"x\"", "[]", "{}", "true", "null", "[1]", "-0", "1e999", "0.5e-1"};
  const auto pick = [&](const auto& list) -> const std::string& {
    return list[next(std::size(list))];
  };
  switch (line.empty() ? 1 : next(5)) {
    case 0: {
      const std::size_t at = next(line.size());
      line[at] = static_cast<char>(line[at] ^ (1 << next(8)));
      break;
    }
    case 1: line.insert(next(line.size() + 1), pick(kTokens)); break;
    case 2: {
      const std::string& token = pick(kTokens);
      std::vector<std::size_t> hits;
      for (std::size_t at = line.find(token); at != std::string::npos;
           at = line.find(token, at + 1))
        hits.push_back(at);
      if (hits.empty())
        line.erase(next(line.size()), 1);
      else
        line.erase(hits[next(hits.size())], token.size());
      break;
    }
    case 3: {
      // Replace one element, found from a random byte on: a number, an
      // innermost [...] row, or a quoted string.
      static const std::string_view kStarts[] = {"0123456789", "[", "\""};
      const std::size_t what = next(3);
      const std::size_t at =
          line.find_first_of(kStarts[what], next(line.size()));
      if (at == std::string::npos) break;
      std::size_t end = at + 1;
      if (what == 0)
        end = line.find_first_not_of("0123456789.-+e", at);
      else if (what == 1)
        end = line.find_first_of("[]", at + 1);
      else
        end = line.find('"', at + 1);
      if (end == std::string::npos || (what == 1 && line[end] != ']')) break;
      if (what != 0) ++end;
      line.replace(at, end - at, pick(kValues));
      break;
    }
    default: line.resize(next(line.size())); break;
  }
  return line;
}

// ~2000 seeded mutations of request lines that carry a matrix, reduced to
// one (count, total length, FNV-1a 64) over every Server::handle response.
// Pins the reader's syntax-error offsets and messages, and the order in
// which matrix errors and the other request errors are reported.
TEST(SvcGolden, MutatedMatrixLinesMatchRecordedBytes) {
  svc::Server server;
  const std::vector<std::string> bases = mutation_bases();
  std::uint64_t s = 1407;
  std::size_t count = 0, total = 0;
  std::string all;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    for (int k = 0; k < 300; ++k) {
      std::string line = mutate(bases[b], s);
      if (k % 3 == 0) line = mutate(std::move(line), s);
      svc::StreamSession session;
      std::string response = server.handle(line, &session);
      // A stats payload reports live counters; keep only that it succeeded.
      if (b == 4 && response.find(",\"ok\":true,") != std::string::npos)
        response = "stats ok";
      ++count;
      total += response.size();
      all += response;
      all += '\n';
    }
  }
  EXPECT_EQ(count, 2100u);
  EXPECT_EQ(total, 291257u);
  EXPECT_EQ(fnv1a64(all), 0x02d2f53c7e96e426ull);
}

}  // namespace
