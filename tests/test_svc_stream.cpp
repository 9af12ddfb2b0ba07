// Streaming service tests: the subscribe/update request kinds end to end —
// session state machine, equivalence with a directly-driven
// core::MeasureView, 400s for sessionless front ends, byte-identical
// responses across worker thread counts, and memo/cache bypass through the
// epoll event loop over a real socket — where session ops run on the pool
// one at a time per connection, in arrival order, and outlive a closed
// connection without writing to it; bytes a peer streams behind a queued
// session op stay unread in its socket. Runs under the `stream_equiv` ctest
// label (TSan in CI).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/measure_view.hpp"
#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "io/json.hpp"
#include "pool_gate.hpp"
#include "svc/event_loop.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

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

std::string subscribe_line(const EtcMatrix& etc,
                           const std::string& extra = {}) {
  return "{\"kind\":\"subscribe\"" + extra + ",\"etc\":" + io::to_json(etc) +
         "}";
}

std::string update_line(const std::string& deltas) {
  return "{\"kind\":\"update\"," + deltas + "}";
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

bool is_error(const std::string& response, int code) {
  return response.find("\"ok\":false") != std::string::npos &&
         response.find("\"code\":" + std::to_string(code)) !=
             std::string::npos;
}

/// The scripted session every equivalence test replays: subscribe, entry
/// revisions, structural churn, and noisy observations.
std::vector<std::string> scripted_session(const EtcMatrix& etc) {
  return {
      subscribe_line(etc),
      update_line("\"set\":[{\"task\":0,\"machine\":1,\"etc\":2.5},"
                  "{\"task\":3,\"machine\":2,\"etc\":0.75}]"),
      update_line("\"add_tasks\":[[1.0,2.0,3.0,4.0]]"),
      update_line("\"remove_machines\":[1],"
                  "\"add_machines\":[[0.5,1.5,2.5,3.5,4.5,5.5,6.5,7.5,"
                  "8.5,9.5]]"),
      update_line("\"observe\":[{\"task\":1,\"machine\":0,\"runtime\":9.0},"
                  "{\"task\":1,\"machine\":0,\"runtime\":9.5}]"),
      update_line("\"remove_tasks\":[4]"),
  };
}

TEST(SvcStream, SubscribeThenUpdateMatchesDirectView) {
  svc::Server server;
  svc::StreamSession session;
  const EtcMatrix etc = test_matrix(8, 4, 11);

  const std::string sub = server.handle(subscribe_line(etc), &session);
  ASSERT_TRUE(is_ok(sub)) << sub;
  EXPECT_NE(sub.find("\"version\":0"), std::string::npos) << sub;
  EXPECT_NE(sub.find("\"tasks\":8"), std::string::npos);
  EXPECT_NE(sub.find("\"machines\":4"), std::string::npos);

  // Twin view driven directly through the core API with the same deltas,
  // batched exactly as the session batches a "set" list: the service
  // response must embed its exact measure bytes.
  hetero::core::MeasureView twin(etc.to_ecs().values());
  const std::vector<hetero::core::CellDelta> deltas = {
      {0, 1, 1.0 / 2.5}, {3, 2, 1.0 / 0.75}};
  twin.set_entries(deltas);
  const std::string upd = server.handle(
      update_line("\"set\":[{\"task\":0,\"machine\":1,\"etc\":2.5},"
                  "{\"task\":3,\"machine\":2,\"etc\":0.75}]"),
      &session);
  ASSERT_TRUE(is_ok(upd)) << upd;
  EXPECT_NE(upd.find("\"measures\":" + io::to_json(twin.current())),
            std::string::npos)
      << upd;
  EXPECT_NE(upd.find("\"version\":1"), std::string::npos) << upd;
}

TEST(SvcStream, SessionKindsWithoutSessionAre400) {
  svc::Server server;
  const EtcMatrix etc = test_matrix(4, 3, 7);
  EXPECT_TRUE(is_error(server.handle(subscribe_line(etc)), 400));
  EXPECT_TRUE(is_error(
      server.handle(update_line("\"set\":[{\"task\":0,\"machine\":0,"
                                "\"etc\":1.0}]")),
      400));
}

TEST(SvcStream, UpdateBeforeSubscribeIs400) {
  svc::Server server;
  svc::StreamSession session;
  EXPECT_FALSE(session.active());
  const std::string got = server.handle(
      update_line("\"set\":[{\"task\":0,\"machine\":0,\"etc\":1.0}]"),
      &session);
  EXPECT_TRUE(is_error(got, 400)) << got;
  EXPECT_NE(got.find("subscribe"), std::string::npos) << got;
}

TEST(SvcStream, InvalidDeltasAre400AndSessionSurvives) {
  svc::Server server;
  svc::StreamSession session;
  const EtcMatrix etc = test_matrix(4, 3, 19);
  ASSERT_TRUE(is_ok(server.handle(subscribe_line(etc), &session)));

  // Out-of-range index, non-positive value, non-finite subscribe matrix.
  EXPECT_TRUE(is_error(
      server.handle(update_line("\"set\":[{\"task\":9,\"machine\":0,"
                                "\"etc\":1.0}]"),
                    &session),
      400));
  EXPECT_TRUE(is_error(
      server.handle(update_line("\"set\":[{\"task\":0,\"machine\":0,"
                                "\"etc\":-1.0}]"),
                    &session),
      400));
  // Removing the last rows one past the end.
  EXPECT_TRUE(is_error(
      server.handle(update_line("\"remove_tasks\":[0,0,0,0]"), &session),
      400));

  // The session is still alive and consistent after every rejection.
  const std::string ok = server.handle(
      update_line("\"set\":[{\"task\":0,\"machine\":0,\"etc\":1.25}]"),
      &session);
  EXPECT_TRUE(is_ok(ok)) << ok;
}

TEST(SvcStream, ByteIdenticalAcrossThreadCounts) {
  const EtcMatrix etc = test_matrix(9, 4, 42);
  const std::vector<std::string> script = scripted_session(etc);
  std::vector<std::vector<std::string>> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    svc::ServerOptions options;
    options.threads = threads;
    svc::Server server(options);
    svc::StreamSession session;
    std::vector<std::string> responses;
    for (const std::string& line : script)
      responses.push_back(server.handle(line, &session));
    for (const std::string& r : responses) ASSERT_TRUE(is_ok(r)) << r;
    runs.push_back(std::move(responses));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

// Session ops run on the pool, but serve_stream dispatches the next line
// only after one is answered: the session sees its updates in order even
// with stateless requests in flight between them.
TEST(SvcStream, ServeStreamKeepsOneSession) {
  svc::Server server;
  const EtcMatrix etc = test_matrix(6, 3, 23);
  const std::string characterize =
      ",\"kind\":\"characterize\",\"etc\":" + io::to_json(etc) + "}";
  std::istringstream in(
      subscribe_line(etc, ",\"id\":1") + "\n" +
      "{\"id\":10" + characterize + "\n" +
      update_line("\"id\":2,\"set\":[{\"task\":1,\"machine\":1,"
                  "\"etc\":3.0}]") +
      "\n" + "{\"id\":11" + characterize + "\n" +
      update_line("\"id\":3,\"observe\":[{\"task\":0,\"machine\":0,"
                  "\"runtime\":5.0}]") +
      "\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  // Responses arrive in completion order; find each by its id.
  std::istringstream lines(out.str());
  std::string line;
  std::map<std::string, std::string> by_id;
  while (std::getline(lines, line))
    by_id[io::to_json(io::parse_json(line).at("id"))] = line;
  ASSERT_EQ(by_id.size(), 5u);
  for (const auto& [id, r] : by_id) EXPECT_TRUE(is_ok(r)) << id << ": " << r;
  EXPECT_NE(by_id["2"].find("\"version\":1"), std::string::npos);
  EXPECT_NE(by_id["3"].find("\"version\":2"), std::string::npos);
  EXPECT_EQ(by_id["10"], server.handle("{\"id\":10" + characterize));
}

// --- Event-loop (epoll) front end over real sockets ---------------------

/// Minimal blocking NDJSON client (same shape as the async suite's).
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

  /// Turns off Nagle so every send() leaves as its own segment.
  void set_nodelay() {
    const int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  }

  /// Closes with an RST (zero linger): the server sees the connection
  /// fail at once, whatever it still owes.
  void reset() {
    const linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

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

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::optional<std::string> roundtrip(TestClient& client,
                                     const std::string& line) {
  if (!client.send_all(line + "\n")) return std::nullopt;
  return client.recv_line();
}

TEST(SvcStream, EventLoopSessionBypassesMemoAndCache) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  const EtcMatrix etc = test_matrix(6, 3, 29);
  const auto sub = roundtrip(client, subscribe_line(etc));
  ASSERT_TRUE(sub.has_value());
  EXPECT_TRUE(is_ok(*sub)) << *sub;

  // Two byte-identical observe updates: a memoizing front end would replay
  // the first response, but session responses must never be memoized — the
  // estimator mean moves on each observation, so the responses differ.
  const std::string line = update_line(
      "\"observe\":[{\"task\":0,\"machine\":0,\"runtime\":50.0}]");
  const auto first = roundtrip(client, line);
  const auto second = roundtrip(client, line);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(is_ok(*first)) << *first;
  EXPECT_TRUE(is_ok(*second)) << *second;
  EXPECT_NE(*first, *second);
  EXPECT_NE(first->find("\"version\":1"), std::string::npos) << *first;
  EXPECT_NE(second->find("\"version\":2"), std::string::npos) << *second;

  // A stateless cacheable request still flows normally on the same
  // connection, twice (cold then memo/cache hit), byte-identically.
  const std::string measures =
      "{\"kind\":\"measures\",\"etc\":" + io::to_json(etc) + "}";
  const auto cold = roundtrip(client, measures);
  const auto warm = roundtrip(client, measures);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(is_ok(*cold));
  EXPECT_EQ(*cold, *warm);
}

TEST(SvcStream, EventLoopSessionsArePerConnection) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));

  TestClient subscribed(loop.port());
  TestClient fresh(loop.port());
  ASSERT_TRUE(subscribed.connected());
  ASSERT_TRUE(fresh.connected());

  const EtcMatrix etc = test_matrix(5, 3, 31);
  const auto sub = roundtrip(subscribed, subscribe_line(etc));
  ASSERT_TRUE(sub.has_value());
  EXPECT_TRUE(is_ok(*sub));

  const std::string line = update_line(
      "\"set\":[{\"task\":0,\"machine\":0,\"etc\":2.0}]");
  const auto ok = roundtrip(subscribed, line);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(is_ok(*ok)) << *ok;

  // The other connection never subscribed: its session is independent.
  const auto rejected = roundtrip(fresh, line);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_TRUE(is_error(*rejected, 400)) << *rejected;
}

TEST(SvcStream, ResubscribeReplacesView) {
  svc::Server server;
  svc::StreamSession session;
  const EtcMatrix first = test_matrix(6, 3, 51);
  const EtcMatrix second = test_matrix(10, 5, 52);
  ASSERT_TRUE(is_ok(server.handle(subscribe_line(first), &session)));
  const std::string got = server.handle(subscribe_line(second), &session);
  ASSERT_TRUE(is_ok(got)) << got;
  EXPECT_NE(got.find("\"tasks\":10"), std::string::npos) << got;
  EXPECT_NE(got.find("\"machines\":5"), std::string::npos) << got;
  EXPECT_NE(got.find("\"version\":0"), std::string::npos) << got;
}

/// The "version" member of a session response, or -1.
long version_of(const std::string& response) {
  const std::size_t at = response.find("\"version\":");
  if (at == std::string::npos) return -1;
  return std::strtol(response.c_str() + at + 10, nullptr, 10);
}

/// A subscribe followed by 50 set updates, as one NDJSON stream.
std::string fifty_update_stream(const EtcMatrix& etc) {
  std::string stream = subscribe_line(etc) + "\n";
  for (int i = 0; i < 50; ++i)
    stream += update_line("\"set\":[{\"task\":" + std::to_string(i % 6) +
                          ",\"machine\":" + std::to_string(i % 3) +
                          ",\"etc\":" + std::to_string(1 + i % 7) +
                          ".5}]") +
              "\n";
  return stream;
}

void expect_versions_in_order(TestClient& client) {
  for (long v = 0; v <= 50; ++v) {
    const auto got = client.recv_line();
    ASSERT_TRUE(got.has_value()) << "missing response " << v;
    ASSERT_TRUE(is_ok(*got)) << *got;
    EXPECT_EQ(version_of(*got), v) << *got;
  }
}

TEST(SvcStream, PipelinedUpdatesInOneWriteAnswerInOrder) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  // The loop decodes all 51 frames from one read, but may send only one
  // session op at a time to the pool: each update must see its
  // predecessor's version. The view is big enough that an update takes
  // longer than decoding the next frame, so idle pool workers would race
  // for the session if the loop let them; a race does not lose every
  // time, hence several connections.
  const std::string stream = fifty_update_stream(test_matrix(128, 16, 41));
  for (int round = 0; round < 8; ++round) {
    TestClient client(loop.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(stream));
    expect_versions_in_order(client);
  }
}

TEST(SvcStream, PipelinedUpdatesOneBytePerWriteAnswerInOrder) {
  svc::Server server;
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  client.set_nodelay();
  const std::string stream = fifty_update_stream(test_matrix(6, 3, 41));
  for (const char c : stream)
    ASSERT_TRUE(client.send_all(std::string_view(&c, 1)));
  expect_versions_in_order(client);
}

TEST(SvcStream, UpdateOnThePoolOutlivesItsClosedConnection) {
  // One pool thread, parked behind a gate: the update is queued when its
  // connection dies, and a new connection (which may reuse the fd) is open
  // when the update finally runs. Its response must be dropped — the only
  // bytes the server writes afterwards are the new connection's.
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  svc::EventLoopServer loop(server);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  const auto& gauges = server.metrics().connections();
  const auto& updates = server.metrics().kind(svc::RequestKind::update);

  auto doomed = std::make_unique<TestClient>(loop.port());
  ASSERT_TRUE(doomed->connected());
  const auto sub = roundtrip(*doomed, subscribe_line(test_matrix(40, 8, 43)));
  ASSERT_TRUE(sub.has_value() && is_ok(*sub));

  hetero::testing::PoolGate gate(server.pool());
  ASSERT_TRUE(doomed->send_all(
      update_line("\"set\":[{\"task\":1,\"machine\":2,\"etc\":3.5}]") + "\n"));
  ASSERT_TRUE(hetero::testing::wait_until(
      [&] { return updates.received.load() == 1; }));
  doomed->reset();
  ASSERT_TRUE(
      hetero::testing::wait_until([&] { return gauges.active.load() == 0; }));

  TestClient next(loop.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(
      hetero::testing::wait_until([&] { return gauges.active.load() == 1; }));
  const std::uint64_t bytes_before = gauges.bytes_out.load();
  gate.release();
  // FIFO pool: this answer comes after the orphaned update has run.
  const auto got = roundtrip(
      next, "{\"id\":5,\"kind\":\"measures\",\"etc\":[[1,2],[3,4]]}");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rfind("{\"id\":5,\"ok\":true", 0), 0u) << *got;
  EXPECT_EQ(updates.completed.load(), 1u);  // the update did run
  // The writer counts its bytes after the socket took them, so the count
  // may trail the client's read by a moment.
  const std::uint64_t expected = got->size() + 1;
  hetero::testing::wait_until(
      [&] { return gauges.bytes_out.load() - bytes_before >= expected; });
  EXPECT_EQ(gauges.bytes_out.load() - bytes_before, expected);
}

TEST(SvcStream, BytesBehindAQueuedSessionOpStayInTheSocket) {
  // A subscribe waits on a parked one-thread pool while the peer streams
  // megabytes of one endless line. The loop must read none of it (the
  // socket's receive window holds the peer back) instead of piling it
  // into the framer for as long as the op waits; once the op is answered
  // the line is read, discarded past max_frame_bytes and answered with a
  // 400, and the session goes on.
  svc::ServerOptions options;
  options.threads = 1;
  svc::Server server(options);
  svc::EventLoopOptions loop_options;
  loop_options.max_frame_bytes = 64u << 10;
  svc::EventLoopServer loop(server, loop_options);
  std::ostringstream log;
  ASSERT_TRUE(loop.start(log));
  const auto& gauges = server.metrics().connections();
  const auto& subscribes = server.metrics().kind(svc::RequestKind::subscribe);

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  hetero::testing::PoolGate gate(server.pool());
  const std::string sub = subscribe_line(test_matrix(6, 3, 47)) + "\n";
  ASSERT_TRUE(client.send_all(sub));
  ASSERT_TRUE(hetero::testing::wait_until(
      [&] { return subscribes.received.load() == 1; }));
  ASSERT_EQ(gauges.bytes_in.load(), sub.size());

  constexpr std::size_t kStreamBytes = 4u << 20;
  std::thread streamer([&] {
    const std::string chunk(64u << 10, 'x');
    for (std::size_t sent = 0; sent < kStreamBytes; sent += chunk.size())
      if (!client.send_all(chunk)) return;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(gauges.bytes_in.load(), sub.size());

  gate.release();
  const auto subscribed = client.recv_line();
  streamer.join();  // before any fatal assertion can skip it
  ASSERT_TRUE(subscribed.has_value());
  EXPECT_TRUE(is_ok(*subscribed)) << *subscribed;
  EXPECT_EQ(version_of(*subscribed), 0) << *subscribed;
  const auto oversized = roundtrip(client, "");
  ASSERT_TRUE(oversized.has_value());
  EXPECT_TRUE(is_error(*oversized, 400)) << *oversized;
  EXPECT_NE(oversized->find("frame exceeds"), std::string::npos)
      << *oversized;
  EXPECT_EQ(gauges.oversized_frames.load(), 1u);
  const std::string update =
      update_line("\"set\":[{\"task\":1,\"machine\":2,\"etc\":3.5}]");
  const auto updated = roundtrip(client, update);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(version_of(*updated), 1) << *updated;
  EXPECT_EQ(gauges.bytes_in.load(),
            sub.size() + kStreamBytes + 1 + update.size() + 1);
}

}  // namespace
