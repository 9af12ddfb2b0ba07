// Long-running characterization service driver.
//
//   hetero_served [options]            serve NDJSON on stdin/stdout
//   hetero_served --tcp PORT [options] serve NDJSON over TCP (epoll event
//                                      loop; PORT 0 = ephemeral)
//
// Options:
//   --threads N        compute worker threads (default: hw concurrency)
//   --workers N        event-loop threads, one SO_REUSEPORT listener each
//                      (default 1; TCP mode only)
//   --queue N          admission-control queue depth (default 256)
//   --shards N         result-cache shards (default 16)
//   --cache N          result-cache entries per shard (default 64)
//   --deadline-ms N    default per-request deadline (default: none)
//   --idle-timeout-ms N  close idle connections after N ms (default 30000)
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
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "svc/event_loop.hpp"
#include "svc/server.hpp"

namespace {

int usage() {
  std::cerr << "usage: hetero_served [--tcp PORT] [--workers N] "
               "[--threads N] [--queue N] [--shards N] "
               "[--cache N] [--deadline-ms N] [--idle-timeout-ms N]\n";
  return 2;
}

hetero::svc::EventLoopServer* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  hetero::svc::ServerOptions options;
  hetero::svc::EventLoopOptions loop_options;
  std::uint16_t tcp_port = 0;
  bool tcp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    try {
      if (arg == "--tcp") {
        const char* v = next();
        if (!v) return usage();
        tcp_port = static_cast<std::uint16_t>(std::stoul(v));
        tcp = true;
      } else if (arg == "--workers") {
        const char* v = next();
        if (!v) return usage();
        loop_options.workers = std::stoul(v);
      } else if (arg == "--threads") {
        const char* v = next();
        if (!v) return usage();
        options.threads = std::stoul(v);
      } else if (arg == "--queue") {
        const char* v = next();
        if (!v) return usage();
        options.queue_depth = std::stoul(v);
      } else if (arg == "--shards") {
        const char* v = next();
        if (!v) return usage();
        options.cache_shards = std::stoul(v);
      } else if (arg == "--cache") {
        const char* v = next();
        if (!v) return usage();
        options.cache_capacity_per_shard = std::stoul(v);
      } else if (arg == "--deadline-ms") {
        const char* v = next();
        if (!v) return usage();
        options.default_deadline = std::chrono::milliseconds(std::stol(v));
      } else if (arg == "--idle-timeout-ms") {
        const char* v = next();
        if (!v) return usage();
        loop_options.idle_timeout = std::chrono::milliseconds(std::stol(v));
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  hetero::svc::Server server(options);
  int rc = 0;
  if (tcp) {
    loop_options.port = tcp_port;
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
