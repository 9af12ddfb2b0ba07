// Long-running characterization service driver.
//
//   hetero_served [options]            serve NDJSON on stdin/stdout
//   hetero_served --tcp PORT [options] serve NDJSON over TCP (epoll event
//                                      loop; PORT 0 = ephemeral)
//
// Options:
//   --threads N        compute worker threads, at most 1024 (default: hw
//                      concurrency)
//   --workers N        event-loop threads, one SO_REUSEPORT listener each,
//                      at most 1024 (default 1; TCP mode only)
//   --queue N          admission-control depth: requests waiting for a
//                      worker (default 256)
//   --shards N         result-cache shards, at most 65536 (default 16)
//   --cache N          result-cache entries per shard (default 64)
//   --deadline-ms N    default per-request deadline (default: none)
//   --idle-timeout-ms N  close idle connections after N ms (default 30000)
//
// Every N is a plain non-negative decimal integer; durations are at most
// 1e12 ms, and PORT is at most 65535. Anything else prints usage and exits
// with status 2.
//
// Protocol (one JSON object per line; see src/svc/protocol.hpp):
//   {"id":1,"kind":"measures","etc":[[1,2],[3,4]]}
//   {"id":2,"kind":"characterize","etc":{"tasks":["a","b"],
//     "machines":["x","y"],"etc":[[1,2],[3,null]]}}
//   {"id":3,"kind":"schedule","heuristic":"min_min","etc":[[1,2],[3,4]]}
//   {"id":4,"kind":"whatif","remove":"machines","etc":[[1,2],[3,4]]}
//   {"id":5,"kind":"stats"}
//
// In TCP mode SIGINT/SIGTERM trigger a graceful shutdown: stop
// accepting, flush in-flight responses, then exit. On shutdown (any mode)
// the metrics registry — including connection gauges — is dumped to
// stderr.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "svc/event_loop.hpp"
#include "svc/server.hpp"

namespace {

int usage() {
  std::cerr << "usage: hetero_served [--tcp PORT] [--workers N] "
               "[--threads N] [--queue N] [--shards N] "
               "[--cache N] [--deadline-ms N] [--idle-timeout-ms N]\n";
  return 2;
}

// Bounds of the numeric flags. Thread and shard counts are sized up front
// (one OS thread, one cache shard each), so they get a cap far above any
// real configuration; durations share the protocol's deadline_ms bound,
// which keeps now + duration inside steady_clock's range.
constexpr std::uint64_t kMaxPort = 65535;
constexpr std::uint64_t kMaxThreads = 1024;
constexpr std::uint64_t kMaxShards = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxCount = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kMaxMs = 1'000'000'000'000;

// Parses a flag's value: a plain decimal integer in [0, max] (no sign, no
// trailing characters). Anything else names the flag and returns nullopt.
std::optional<std::uint64_t> parse_value(const std::string& flag,
                                         const char* token,
                                         std::uint64_t max) {
  if (token == nullptr) return std::nullopt;
  const char* end = token + std::strlen(token);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(token, end, value);
  if (ec == std::errc() && ptr == end && value <= max) return value;
  std::cerr << "hetero_served: " << flag << " expects an integer in [0, "
            << max << "], got '" << token << "'\n";
  return std::nullopt;
}

hetero::svc::EventLoopServer* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  hetero::svc::ServerOptions options;
  hetero::svc::EventLoopOptions loop_options;
  bool tcp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Reads the flag's value into `out`; false on a missing or bad one.
    const auto read = [&](auto& out, std::uint64_t max) {
      const auto v = parse_value(arg, ++i < argc ? argv[i] : nullptr, max);
      if (v) out = static_cast<std::remove_reference_t<decltype(out)>>(*v);
      return v.has_value();
    };
    bool ok = false;
    if (arg == "--tcp") {
      ok = read(loop_options.port, kMaxPort);
      tcp = true;
    } else if (arg == "--workers") {
      ok = read(loop_options.workers, kMaxThreads);
    } else if (arg == "--threads") {
      ok = read(options.threads, kMaxThreads);
    } else if (arg == "--queue") {
      ok = read(options.queue_depth, kMaxCount);
    } else if (arg == "--shards") {
      ok = read(options.cache_shards, kMaxShards);
    } else if (arg == "--cache") {
      ok = read(options.cache_capacity_per_shard, kMaxCount);
    } else if (arg == "--deadline-ms") {
      ok = read(options.default_deadline, kMaxMs);
    } else if (arg == "--idle-timeout-ms") {
      ok = read(loop_options.idle_timeout, kMaxMs);
    }
    if (!ok) return usage();
  }

  hetero::svc::Server server(options);
  int rc = 0;
  if (tcp) {
    hetero::svc::EventLoopServer loop(server, loop_options);
    g_loop = &loop;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    rc = loop.run(std::cerr);
    g_loop = nullptr;
  } else {
    server.serve_stream(std::cin, std::cout);
  }
  std::cerr << "\n-- service metrics --\n"
            << hetero::svc::render_text(server.metrics().snapshot());
  const auto cache = server.cache().stats();
  std::cerr << "cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.evictions << " evictions, "
            << cache.entries << " resident\n";
  return rc;
}
