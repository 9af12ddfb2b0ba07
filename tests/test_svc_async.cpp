// Async service front-end tests: resumable NDJSON framing (byte-at-a-time
// and random splits must decode byte-identically to whole-buffer
// splitting), consistent-hash shard ownership, Server::submit's inline
// path, and the epoll event loop end to end over real sockets — including
// bit-identity against a Server driven without the loop, oversized-frame
// resync, idle timeouts, write backpressure, graceful-shutdown flushing,
// pool workers writing (and spilling) responses beside the loop, responses
// of a closed connection dropped, and the non-blocking load-generator
// harness. Runs under the svc_equiv
// ctest label (TSan in CI).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "io/json.hpp"
#include "pool_gate.hpp"
#include "reference/loadgen.hpp"
#include "svc/event_loop.hpp"
#include "svc/result_cache.hpp"
#include "svc/server.hpp"

namespace {

namespace svc = hetero::svc;
namespace io = hetero::io;
using hetero::core::EtcMatrix;

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

/// The request fixture set every framing/equivalence suite runs through:
/// one of each kind, a malformed line, and a small matrix for speed.
std::vector<std::string> fixture_lines() {
  const auto etc = test_matrix(8, 4, 11);
  return {
      request_line(etc, "characterize"),
      request_line(etc, "measures"),
      request_line(etc, "schedule", ",\"heuristic\":\"min_min\""),
      request_line(etc, "whatif"),
      request_line(test_matrix(6, 3, 12), "characterize", ",\"id\":42"),
      "{\"kind\":\"nonsense\"}",
      "not json at all",
  };
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
// LineFramer: resumable framing.

std::vector<std::string> frames_of(io::LineFramer& framer) {
  std::vector<std::string> out;
  while (auto frame = framer.next()) out.push_back(std::move(frame->line));
  return out;
}

/// Reference decoding: split the whole stream at '\n'.
std::vector<std::string> split_lines(const std::string& stream) {
  std::vector<std::string> out;
  std::size_t start = 0;
  std::size_t pos;
  while ((pos = stream.find('\n', start)) != std::string::npos) {
    out.push_back(stream.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string fixture_stream() {
  std::string stream;
  for (const auto& line : fixture_lines()) {
    stream += line;
    stream += '\n';
  }
  return stream;
}

TEST(SvcLineFramer, ByteAtATimeMatchesWholeBuffer) {
  const std::string stream = fixture_stream();
  const auto expected = split_lines(stream);

  io::LineFramer framer;
  std::vector<std::string> got;
  for (const char byte : stream) {
    framer.feed(std::string_view(&byte, 1));
    for (auto& line : frames_of(framer)) got.push_back(std::move(line));
  }
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(framer.mid_frame());
  EXPECT_EQ(framer.pending_bytes(), 0u);
}

TEST(SvcLineFramer, RandomSplitsMatchWholeBuffer) {
  const std::string stream = fixture_stream();
  const auto expected = split_lines(stream);

  std::mt19937 rng(1234);
  for (int round = 0; round < 50; ++round) {
    io::LineFramer framer;
    std::vector<std::string> got;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      std::uniform_int_distribution<std::size_t> chunk_size(
          1, 1 + (stream.size() - offset) / 3 + 7);
      const std::size_t n =
          std::min(chunk_size(rng), stream.size() - offset);
      framer.feed(std::string_view(stream).substr(offset, n));
      offset += n;
      for (auto& line : frames_of(framer)) got.push_back(std::move(line));
    }
    ASSERT_EQ(got, expected) << "round " << round;
    EXPECT_FALSE(framer.mid_frame());
  }
}

TEST(SvcLineFramer, KeepsCarriageReturnAndEmptyLines) {
  io::LineFramer framer;
  framer.feed("a\r\n\nb\n");
  auto a = framer.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->line, "a\r");
  auto blank = framer.next();
  ASSERT_TRUE(blank.has_value());
  EXPECT_EQ(blank->line, "");
  auto b = framer.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->line, "b");
  EXPECT_FALSE(framer.next().has_value());
}

TEST(SvcLineFramer, MidFrameState) {
  io::LineFramer framer;
  EXPECT_FALSE(framer.mid_frame());
  framer.feed("partial");
  EXPECT_TRUE(framer.mid_frame());
  EXPECT_EQ(framer.pending_bytes(), 7u);
  framer.feed(" line\n");
  auto frame = framer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->line, "partial line");
  EXPECT_FALSE(framer.mid_frame());
}

TEST(SvcLineFramer, OversizedLineIsTruncatedAndResyncs) {
  io::LineFramer framer(16);
  const std::string garbage(100, 'x');
  framer.feed(garbage);
  // The cap is exceeded mid-line: nothing to emit yet, memory bounded.
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_LE(framer.pending_bytes(), 16u);
  framer.feed("tail\nvalid\n");
  auto oversized = framer.next();
  ASSERT_TRUE(oversized.has_value());
  EXPECT_TRUE(oversized->oversized);
  EXPECT_EQ(oversized->line, garbage.substr(0, 16));
  auto valid = framer.next();
  ASSERT_TRUE(valid.has_value());
  EXPECT_FALSE(valid->oversized);
  EXPECT_EQ(valid->line, "valid");
  EXPECT_FALSE(framer.next().has_value());
}

TEST(SvcLineFramer, OversizedByteAtATime) {
  io::LineFramer framer(8);
  const std::string stream = std::string(40, 'y') + "\nok\n";
  std::vector<io::LineFramer::Frame> got;
  for (const char byte : stream) {
    framer.feed(std::string_view(&byte, 1));
    while (auto frame = framer.next()) got.push_back(std::move(*frame));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].oversized);
  EXPECT_EQ(got[0].line, std::string(8, 'y'));
  EXPECT_FALSE(got[1].oversized);
  EXPECT_EQ(got[1].line, "ok");
}

TEST(SvcLineFramer, GarbageThenValidThroughServer) {
  // An oversized garbage line must not poison the following request: the
  // decoded valid frame's response is byte-identical to the direct path.
  svc::Server server;
  const std::string valid = fixture_lines()[1];
  io::LineFramer framer(4096);
  framer.feed(std::string(10000, '{'));
  framer.feed("\n");
  framer.feed(valid + "\n");
  auto first = framer.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->oversized);
  auto second = framer.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->oversized);
  EXPECT_EQ(server.handle(second->line), server.handle(valid));
}

// ---------------------------------------------------------------------------
// ShardMap: consistent-hash shard ownership.

TEST(SvcShardMap, OwnersAreValidAndDeterministic) {
  const svc::ShardMap a(16, 4);
  const svc::ShardMap b(16, 4);
  EXPECT_EQ(a.shard_count(), 16u);
  EXPECT_EQ(a.worker_count(), 4u);
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_LT(a.owner(s), 4u);
    EXPECT_EQ(a.owner(s), b.owner(s));  // same geometry => same map
  }
}

TEST(SvcShardMap, SingleWorkerOwnsEverything) {
  const svc::ShardMap map(16, 1);
  for (std::size_t s = 0; s < map.shard_count(); ++s)
    EXPECT_EQ(map.owner(s), 0u);
}

TEST(SvcShardMap, SpreadsShardsAcrossWorkers) {
  const svc::ShardMap map(64, 4);
  std::set<std::size_t> owners;
  for (std::size_t s = 0; s < map.shard_count(); ++s)
    owners.insert(map.owner(s));
  // 64 shards over 4 workers: every worker should win some shards.
  EXPECT_EQ(owners.size(), 4u);
}

TEST(SvcShardMap, GrowingWorkersMovesOnlySomeShards) {
  const svc::ShardMap before(64, 4);
  const svc::ShardMap after(64, 5);
  std::size_t moved = 0;
  for (std::size_t s = 0; s < before.shard_count(); ++s)
    if (before.owner(s) != after.owner(s)) ++moved;
  // Consistent hashing: adding a worker reassigns roughly 1/5 of the
  // shards, not all of them (a modulo map would move ~4/5).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 32u);
}

TEST(SvcShardMap, ZeroGeometryClamps) {
  const svc::ShardMap map(0, 0);
  EXPECT_EQ(map.shard_count(), 1u);
  EXPECT_EQ(map.worker_count(), 1u);
  EXPECT_EQ(map.owner(0), 0u);
}

// ---------------------------------------------------------------------------
// Server::submit: the inline answers and the pool path.

TEST(SvcSubmitFast, ParseErrorReturnsInline) {
  svc::Server server;
  svc::Server::SubmitInfo info;
  const auto response = server.submit(
      "garbage", [](std::string) { FAIL() << "respond must not fire"; },
      nullptr, 0, &info);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":400"), std::string::npos);
  EXPECT_EQ(info.kind, svc::RequestKind::invalid);
  EXPECT_FALSE(info.memoizable);
}

TEST(SvcSubmitFast, ColdMissGoesAsyncThenWarmHitInline) {
  svc::Server server;
  const std::string line = fixture_lines()[0];

  std::mutex m;
  std::condition_variable cv;
  std::string async_response;
  bool done = false;
  svc::Server::SubmitInfo info;
  const auto cold = server.submit(
      line,
      [&](std::string r) {
        const std::scoped_lock lock(m);
        async_response = std::move(r);
        done = true;
        cv.notify_one();
      },
      nullptr, 0, &info);
  EXPECT_FALSE(cold.has_value());  // miss: the pool answers
  EXPECT_EQ(info.kind, svc::RequestKind::characterize);
  EXPECT_FALSE(info.memoizable);
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return done; });
  }
  // The inline miss goes uncounted; the worker's lookup counts it once.
  EXPECT_EQ(server.cache().stats().misses, 1u);
  EXPECT_EQ(server.cache().stats().hits, 0u);

  const auto warm = server.submit(
      line, [](std::string) { FAIL() << "warm hit must answer inline"; },
      nullptr, 0, &info);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(info.memoizable);
  EXPECT_EQ(server.cache().stats().hits, 1u);
  EXPECT_EQ(*warm, async_response);  // bit-identical to the cold response
  EXPECT_EQ(*warm, call(server, line));  // and to the blocking path
}

TEST(SvcSubmitFast, NonOwnedShardTakesTheQueuePath) {
  svc::Server server;
  const std::string line = fixture_lines()[0];
  call(server, line);  // warm the cache

  // A map whose single worker index is 0: claiming index 1 owns nothing,
  // so even a warm hit must go through the pool (and still answer with
  // the identical cached bytes).
  const svc::ShardMap map(server.cache().shard_count(), 1);
  std::mutex m;
  std::condition_variable cv;
  std::string async_response;
  bool done = false;
  const auto result = server.submit(
      line,
      [&](std::string r) {
        const std::scoped_lock lock(m);
        async_response = std::move(r);
        done = true;
        cv.notify_one();
      },
      &map, /*worker_index=*/1);
  EXPECT_FALSE(result.has_value());
  std::unique_lock lock(m);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(async_response, call(server, line));
}

// A warm hit for a request with a deadline is answered inline but is not
// memoizable: its 408-versus-result outcome depends on the clock.
TEST(SvcSubmitFast, DeadlineMarksInfo) {
  svc::Server server;
  const std::string line =
      request_line(test_matrix(4, 2, 3), "measures", ",\"deadline_ms\":5000");
  const std::string cold = call(server, line);
  svc::Server::SubmitInfo info;
  const auto warm = server.submit(
      line, [](std::string) { FAIL() << "warm hit must answer inline"; },
      nullptr, 0, &info);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*warm, cold);
  EXPECT_FALSE(info.memoizable);
}

}  // namespace

// ---------------------------------------------------------------------------
// Event loop end to end (real sockets; Linux only).

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

/// Minimal blocking NDJSON client for driving the event loop in tests.
class TestClient {
 public:
  /// `rcvbuf` > 0 pins SO_RCVBUF before connecting, so the advertised TCP
  /// window stays small for backpressure tests.
  explicit TestClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && rcvbuf > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  bool send_all(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const auto n = ::send(fd_, data.data() + off, data.size() - off,
                            MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line (without '\n'); nullopt on EOF.
  std::optional<std::string> recv_line() {
    while (true) {
      const auto pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const auto n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Closes with an RST (zero linger): the server sees the connection
  /// fail at once, whatever it still owes.
  void reset() {
    const linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

  /// True when the peer has closed (EOF observed).
  bool at_eof() {
    char byte;
    const auto n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// One request/response round trip over an established connection.
std::optional<std::string> roundtrip(TestClient& client,
                                     const std::string& line) {
  if (!client.send_all(line + "\n")) return std::nullopt;
  return client.recv_line();
}

TEST(SvcEventLoop, BitIdenticalToBlockingPath) {
  svc::Server server;
  svc::Server twin;  // the PR 5 blocking reference
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  for (const auto& line : fixture_lines()) {
    // Twice each: cold then warm (cache path), plus a third pass for the
    // raw-line memo — every response must match the blocking twin.
    for (int pass = 0; pass < 3; ++pass) {
      const auto got = roundtrip(client, line);
      ASSERT_TRUE(got.has_value()) << line;
      EXPECT_EQ(*got, call(twin, line)) << line << " pass " << pass;
    }
  }
}

TEST(SvcEventLoop, MultiWorkerBitIdentical) {
  svc::EventLoopOptions options;
  options.workers = 3;
  svc::Server server;
  svc::Server twin;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  EXPECT_EQ(loop.worker_count(), 3u);

  const auto lines = fixture_lines();
  // Several short-lived connections so the kernel spreads them across the
  // per-worker listeners.
  for (int c = 0; c < 8; ++c) {
    TestClient client(loop.port());
    ASSERT_TRUE(client.connected());
    for (const auto& line : lines) {
      const auto got = roundtrip(client, line);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, call(twin, line));
    }
  }
}

TEST(SvcEventLoop, SplitWritesDecodeIdentically) {
  svc::Server server;
  svc::Server twin;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  const std::string line = fixture_lines()[0];
  const std::string framed = line + "\n";
  // Drip the request in small uneven chunks; the resumable framer must
  // reassemble it bit-for-bit.
  std::mt19937 rng(7);
  std::size_t off = 0;
  while (off < framed.size()) {
    std::uniform_int_distribution<std::size_t> chunk_size(1, 9);
    const std::size_t n = std::min(chunk_size(rng), framed.size() - off);
    ASSERT_TRUE(client.send_all(std::string_view(framed).substr(off, n)));
    off += n;
  }
  const auto got = client.recv_line();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, call(twin, line));
}

TEST(SvcEventLoop, PipelinedBurstAnswersEverything) {
  svc::Server server;
  svc::Server twin;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  const std::string line = fixture_lines()[1];
  const std::string expected = call(twin, line);
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += line + "\n";
  ASSERT_TRUE(client.send_all(burst));
  for (int i = 0; i < kBurst; ++i) {
    const auto got = client.recv_line();
    ASSERT_TRUE(got.has_value()) << "response " << i;
    EXPECT_EQ(*got, expected);
  }
}

TEST(SvcEventLoop, OversizedFrameGets400AndStreamResyncs) {
  svc::EventLoopOptions options;
  options.max_frame_bytes = 4096;
  svc::Server server;
  svc::Server twin;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  const std::string valid = fixture_lines()[1];
  ASSERT_TRUE(client.send_all(std::string(10000, '{') + "\n" + valid + "\n"));
  const auto first = client.recv_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("\"code\":400"), std::string::npos);
  EXPECT_NE(first->find("frame exceeds"), std::string::npos);
  const auto second = client.recv_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, call(twin, valid));
  EXPECT_GE(server.metrics().connections().oversized_frames.load(), 1u);
}

TEST(SvcEventLoop, StatsReportsConnectionGauges) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  roundtrip(client, fixture_lines()[0]);
  const auto stats = roundtrip(client, "{\"kind\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"connections\""), std::string::npos);
  EXPECT_NE(stats->find("\"accepted\":1"), std::string::npos);
  EXPECT_NE(stats->find("\"active\":1"), std::string::npos);
}

TEST(SvcEventLoop, IdleConnectionsAreReaped) {
  svc::EventLoopOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  svc::Server server;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  // Never send anything: the sweep must close the half-open peer.
  EXPECT_TRUE(client.at_eof());  // blocks until the server closes
  EXPECT_GE(server.metrics().connections().timed_out.load(), 1u);
}

TEST(SvcEventLoop, BackpressureClosesUnresponsivePeer) {
  // The read-pause at the high-water mark normally keeps a connection
  // under the close limit (by design), so to pin down the close path
  // deterministically the high water is parked above the close limit and
  // the kernel-side buffering is bounded on both sides: SO_SNDBUF on the
  // server, SO_RCVBUF pinned before connect on the client. A peer that
  // never reads then drives the unsent-response buffer straight through
  // the limit.
  svc::EventLoopOptions options;
  options.write_high_water = 1 << 20;
  options.write_close_limit = 32 << 10;
  options.send_buffer_bytes = 16 << 10;
  options.idle_timeout = std::chrono::milliseconds(5000);  // failure backstop
  svc::Server server;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  // Warm the cache so responses are generated faster than the peer could
  // ever drain them; whatif has the fattest response per request byte.
  const std::string line = request_line(test_matrix(8, 4, 5), "whatif");
  {
    TestClient warmup(loop.port());
    ASSERT_TRUE(warmup.connected());
    ASSERT_TRUE(roundtrip(warmup, line).has_value());
  }

  TestClient client(loop.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  // Never read; the responses owed (~128 x 2.5 KB) exceed the close limit
  // plus everything both kernels can absorb.
  std::string burst;
  for (int i = 0; i < 128; ++i) burst += line + "\n";
  client.send_all(burst);  // may partially fail once the server closes

  // Still without reading, wait for the close (bounded by the idle-timeout
  // backstop). Draining first would let a CPU-starved server find every
  // response already consumed, keeping its unsent bytes under the limit.
  const auto& closed = server.metrics().connections().backpressure_closed;
  const auto deadline =
      std::chrono::steady_clock::now() + options.idle_timeout;
  while (closed.load() < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // The server must close us; reading everything left ends in EOF.
  while (client.recv_line().has_value()) {
  }
  EXPECT_GE(server.metrics().connections().backpressure_closed.load(), 1u);
}

TEST(SvcEventLoop, GracefulShutdownFlushesInFlight) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  // A cold characterize large enough that shutdown lands mid-compute.
  const std::string line = request_line(test_matrix(96, 12, 77),
                                        "characterize");
  ASSERT_TRUE(client.send_all(line + "\n"));
  // Let the loop read and admit the frame before the drain begins.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  loop.request_shutdown();

  const auto got = client.recv_line();
  ASSERT_TRUE(got.has_value()) << "in-flight response was dropped";
  svc::Server twin;
  EXPECT_EQ(*got, call(twin, line));
  EXPECT_FALSE(client.recv_line().has_value());  // then EOF
  loop.wait();
}

TEST(SvcEventLoop, ComputeOnThePoolOutlivesItsClosedConnection) {
  // One pool thread, parked behind a gate: the characterize is queued when
  // its connection dies, and a new connection (which may reuse the fd) is
  // open when it finally runs. Its response must be dropped — the only
  // bytes the server writes afterwards are the new connection's.
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  const auto& gauges = server.metrics().connections();
  const auto& characterize =
      server.metrics().kind(svc::RequestKind::characterize);

  hetero::testing::PoolGate gate(server.pool());
  {
    TestClient doomed(loop.port());
    ASSERT_TRUE(doomed.connected());
    ASSERT_TRUE(doomed.send_all(
        request_line(test_matrix(48, 8, 61), "characterize") + "\n"));
    ASSERT_TRUE(hetero::testing::wait_until(
        [&] { return characterize.received.load() == 1; }));
    doomed.reset();
  }
  ASSERT_TRUE(
      hetero::testing::wait_until([&] { return gauges.active.load() == 0; }));

  TestClient next(loop.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(
      hetero::testing::wait_until([&] { return gauges.active.load() == 1; }));
  const std::uint64_t bytes_before = gauges.bytes_out.load();
  gate.release();
  // FIFO pool: this answer comes after the orphaned compute has run.
  const auto got = roundtrip(
      next, "{\"id\":5,\"kind\":\"measures\",\"etc\":[[1,2],[3,4]]}");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rfind("{\"id\":5,\"ok\":true", 0), 0u) << *got;
  EXPECT_EQ(characterize.completed.load(), 1u);  // it did run
  // The writer counts its bytes after the socket took them, so the count
  // may trail the client's read by a moment.
  const std::uint64_t expected = got->size() + 1;
  hetero::testing::wait_until(
      [&] { return gauges.bytes_out.load() - bytes_before >= expected; });
  EXPECT_EQ(gauges.bytes_out.load() - bytes_before, expected);
}

TEST(SvcEventLoop, LoopAndPoolWritesInterleaveWholeLines) {
  // Memo hits and inline 400s are written by the loop, cold computes by
  // two pool threads, all on one connection whose send buffer is tiny and
  // whose peer does not read until everything is sent — so pool threads
  // find the socket full and spill behind each other and the loop. Every
  // line must still arrive whole, exactly once.
  svc::ServerOptions server_options;
  server_options.threads = 2;
  svc::Server server(server_options);
  svc::EventLoopOptions options;
  options.send_buffer_bytes = 4096;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  const std::string memo_line =
      request_line(test_matrix(10, 4, 62), "characterize", ",\"id\":7");
  // Cold (pool), then warm (inline cache hit, memoized).
  ASSERT_TRUE(roundtrip(client, memo_line).has_value());
  ASSERT_TRUE(roundtrip(client, memo_line).has_value());

  std::string burst;
  std::size_t memo_sent = 0;
  std::size_t bad_sent = 0;
  std::set<std::uint64_t> fresh_ids;
  for (std::uint64_t i = 0; i < 240; ++i) {
    switch (i % 3) {
      case 0:
        burst += memo_line;
        ++memo_sent;
        break;
      case 1:
        burst += "not json";
        ++bad_sent;
        break;
      default:
        burst += request_line(test_matrix(24, 6, 1000 + i), "characterize",
                              ",\"id\":" + std::to_string(1000 + i));
        fresh_ids.insert(1000 + i);
    }
    burst += '\n';
  }
  ASSERT_TRUE(client.send_all(burst));

  std::size_t memo_got = 0;
  std::size_t bad_got = 0;
  std::set<std::uint64_t> fresh_got;
  for (std::size_t n = 0; n < 240; ++n) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "response " << n << " missing";
    io::JsonValue doc;
    ASSERT_NO_THROW(doc = io::parse_json(*line)) << *line;
    const io::JsonValue* id = doc.find("id");
    ASSERT_NE(id, nullptr) << *line;
    if (id->is_null()) {
      ++bad_got;
      continue;
    }
    const auto value = static_cast<std::uint64_t>(id->as_number());
    EXPECT_NE(doc.find("result"), nullptr) << *line;
    if (value == 7)
      ++memo_got;
    else
      EXPECT_TRUE(fresh_got.insert(value).second) << "duplicate " << value;
  }
  EXPECT_EQ(memo_got, memo_sent);
  EXPECT_EQ(bad_got, bad_sent);
  EXPECT_EQ(fresh_got, fresh_ids);
}

TEST(SvcEventLoop, LoadGenClosedLoopSmoke) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  svc::LoadGenOptions gen;
  gen.port = loop.port();
  gen.clients = 16;
  gen.requests_per_client = 10;
  gen.pipeline = 2;
  const auto report = svc::run_load(fixture_lines(), gen);
  EXPECT_TRUE(report.ok) << report.to_json();
  EXPECT_EQ(report.received, 160u);
  EXPECT_EQ(report.malformed, 0u);
  EXPECT_EQ(report.dropped, 0u);
  // The fixture set includes malformed requests: their 400s are
  // well-formed protocol errors, not malformed responses.
  EXPECT_GT(report.ok_false, 0u);
  EXPECT_GT(report.latency.count, 0u);
}

TEST(SvcEventLoop, LoadGenOpenLoopSmoke) {
  svc::EventLoopOptions options;
  options.workers = 2;
  svc::Server server;
  svc::EventLoopServer loop(server, options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  svc::LoadGenOptions gen;
  gen.port = loop.port();
  gen.clients = 4;
  gen.requests_per_client = 8;
  gen.open_loop_rps = 400.0;
  const auto report =
      svc::run_load({request_line(test_matrix(6, 3, 2), "measures")}, gen);
  EXPECT_TRUE(report.ok) << report.to_json();
  EXPECT_EQ(report.received, 32u);
}

}  // namespace

#endif  // __linux__
