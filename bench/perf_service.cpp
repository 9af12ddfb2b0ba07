// Closed-loop load generator for the characterization service layer.
//
// Each google-benchmark thread is one synchronous client: it submits a
// request through Server::submit and blocks on the response before issuing
// the next — the closed loop the acceptance numbers in docs/performance.md
// quote. The client claims no cache shard, so a warm hit too makes the
// pool round trip rather than being answered on the client's thread.
// ->Threads(1/4/16) sweeps client concurrency against a shared server;
// requests/s is the reported items_per_second.
//
// Suites:
//   BM_ServiceCharacterizeWarm  — one 128x16 matrix, cache hit after the
//                                 first request (the steady-state fleet
//                                 re-characterization path)
//   BM_ServiceCharacterizeCold  — every request a distinct matrix (pure
//                                 compute path, cache always misses)
//   BM_ServiceScheduleWarm      — min_min schedule of the same matrix
//   BM_ServiceHitRateSweep      — clients cycle through K matrices with a
//                                 cache sized for a fraction of them; the
//                                 measured hit rate is reported as a
//                                 counter
//   BM_ServiceHandleInline      — queue/pool bypassed (Server::handle), to
//                                 separate protocol+pipeline cost from
//                                 dispatch cost
//   BM_ParseRequest             — svc::parse_request of one characterize
//                                 line with integer entries and no labels,
//                                 as perfbench's fleet_fresh sends (64x8,
//                                 128x16): the svc.parse_us layer of a
//                                 cold request, no server
//   BM_ParseRequestFullPrecision — the same for a labelled line of 17-digit
//                                 doubles (to_json(EtcMatrix) output)
//   BM_CacheKey                 — svc::cache_key of one parsed
//                                 BM_ParseRequest request: the
//                                 svc.cache_key_us layer, no server
//   BM_CharacterizeResultJson   — io::to_json of one EnvironmentReport
//                                 (64x8, 128x16): the io.result_json_us
//                                 layer, no server
//
// TCP harness mode (bypasses google-benchmark; this is the BENCH_pr7
// number): `perf_service --clients=N` starts an in-process epoll
// EventLoopServer and drives it over real sockets with the non-blocking
// loadgen harness, printing one JSON report line (throughput +
// p50/p90/p99) to stdout. The process exits non-zero if any response was
// malformed or dropped, any connect failed, or the run timed out — a
// benchmark number can never paper over a broken server. Flags:
//
//   --clients=N       concurrent connections (required to enter this mode)
//   --requests=M      requests per client (default 100)
//   --workers=N       event-loop threads (default 1)
//   --threads=N       compute pool threads (default: hw concurrency)
//   --pipeline=K      in-flight requests per connection (default 1)
//   --open-rps=R      open-loop arrival rate across all clients
//                     (default 0 = closed loop)
//   --distinct=D      cycle D distinct matrices (default 1 = pure warm)
//   --connect=H:P     drive an external server instead of in-process
//   --stream=1        delta-stream workload: every client subscribes once
//                     (loadgen prologue, excluded from the measured
//                     numbers) and then streams `update` requests revising
//                     cells of its session's matrix — the BENCH_pr9
//                     updates/sec number
//   --stream-size=RxC subscribe matrix shape in stream mode (default
//                     128x16)
//   --stream-batch=K  cells revised per update request (default 1)
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/measures.hpp"
#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "io/json.hpp"
#include "reference/loadgen.hpp"
#include "svc/event_loop.hpp"
#include "svc/server.hpp"

namespace {

using hetero::svc::Server;
using hetero::svc::ServerOptions;
using hetero::svc::ShardMap;

std::string request_line(const hetero::core::EtcMatrix& etc,
                         const char* kind, const char* extra) {
  std::string line = "{\"kind\":\"";
  line += kind;
  line += '"';
  line += extra;
  line += ",\"etc\":";
  line += hetero::io::to_json(etc);
  line += '}';
  return line;
}

hetero::core::EtcMatrix make_matrix(std::size_t tasks, std::size_t machines,
                                    std::uint64_t seed) {
  hetero::etcgen::Rng rng(seed);
  hetero::etcgen::RangeBasedOptions options;
  options.tasks = tasks;
  options.machines = machines;
  return hetero::etcgen::generate_range_based(options, rng);
}

// Shared across the benchmark's threads; constructed by thread 0. The map
// gives every cache shard to worker 0 and call() submits as worker 1, so
// no warm hit is answered inline.
std::unique_ptr<Server> g_server;
std::unique_ptr<ShardMap> g_no_shards;

void setup_server(const benchmark::State& state, ServerOptions options) {
  if (state.thread_index() != 0) return;
  g_server = std::make_unique<Server>(options);
  g_no_shards = std::make_unique<ShardMap>(g_server->cache().shard_count(), 1);
}

void teardown_server(const benchmark::State& state) {
  if (state.thread_index() == 0) g_server.reset();
}

/// Blocks the calling benchmark thread until g_server's response arrives —
/// the closed loop.
std::string call(const std::string& line) {
  std::mutex m;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  if (auto inline_response = g_server->submit(
          line,
          [&](std::string r) {
            // Notify under the lock: the caller destroys cv as soon as
            // done flips.
            const std::scoped_lock lock(m);
            response = std::move(r);
            done = true;
            cv.notify_one();
          },
          g_no_shards.get(), /*worker_index=*/1)) {
    response = *std::move(inline_response);
  } else {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return done; });
  }
  // A dropped or malformed response must fail the benchmark run, not
  // silently skew its numbers.
  if (response.find("\"ok\":") == std::string::npos) {
    std::fprintf(stderr, "perf_service: malformed response: %s\n",
                 response.c_str());
    std::abort();
  }
  return response;
}

void BM_ServiceCharacterizeWarm(benchmark::State& state) {
  setup_server(state, {});
  static std::string line;
  if (state.thread_index() == 0)
    line = request_line(make_matrix(128, 16, 7), "characterize", "");
  std::size_t processed = 0;
  for (auto _ : state) {
    const std::string response = call(line);
    benchmark::DoNotOptimize(response.data());
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  teardown_server(state);
}
BENCHMARK(BM_ServiceCharacterizeWarm)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

void BM_ServiceCharacterizeCold(benchmark::State& state) {
  // A 2-entry cache cycled over 64 distinct matrices: effectively every
  // request takes the full compute path.
  ServerOptions options;
  options.cache_shards = 1;
  options.cache_capacity_per_shard = 2;
  setup_server(state, options);
  // Pre-generate distinct matrices so generation cost stays out of the
  // loop.
  constexpr std::size_t kDistinct = 64;
  static std::vector<std::string> lines;
  if (state.thread_index() == 0) {
    lines.clear();
    for (std::size_t i = 0; i < kDistinct; ++i)
      lines.push_back(request_line(
          make_matrix(128, 16, 1000 + i),
          "characterize", ""));
  }
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 17;
  std::size_t processed = 0;
  for (auto _ : state) {
    const std::string response = call(lines[i % kDistinct]);
    benchmark::DoNotOptimize(response.data());
    i += 1;
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  teardown_server(state);
}
BENCHMARK(BM_ServiceCharacterizeCold)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

void BM_ServiceScheduleWarm(benchmark::State& state) {
  setup_server(state, {});
  static std::string line;
  if (state.thread_index() == 0)
    line = request_line(make_matrix(128, 16, 9), "schedule",
                        ",\"heuristic\":\"min_min\"");
  std::size_t processed = 0;
  for (auto _ : state) {
    const std::string response = call(line);
    benchmark::DoNotOptimize(response.data());
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  teardown_server(state);
}
BENCHMARK(BM_ServiceScheduleWarm)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

// Cache hit-rate sweep: K distinct matrices cycled by every client against
// a cache of fixed total capacity. range(0) = K; the resulting hit rate
// lands as the "hit_rate" counter (1 - K/capacity-ish once K exceeds
// capacity).
void BM_ServiceHitRateSweep(benchmark::State& state) {
  ServerOptions options;
  options.cache_shards = 4;
  options.cache_capacity_per_shard = 8;  // 32 cached results total
  setup_server(state, options);
  const auto distinct = static_cast<std::size_t>(state.range(0));
  static std::vector<std::string> lines;
  if (state.thread_index() == 0) {
    lines.clear();
    for (std::size_t i = 0; i < distinct; ++i)
      lines.push_back(
          request_line(make_matrix(32, 8, 500 + i), "measures", ""));
  }
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  std::size_t processed = 0;
  for (auto _ : state) {
    const std::string response = call(lines[i % distinct]);
    benchmark::DoNotOptimize(response.data());
    i += 1;
    ++processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  if (state.thread_index() == 0) {
    const auto stats = g_server->cache().stats();
    const auto total = static_cast<double>(stats.hits + stats.misses);
    state.counters["hit_rate"] = benchmark::Counter(
        total == 0.0 ? 0.0 : static_cast<double>(stats.hits) / total);
  }
  teardown_server(state);
}
BENCHMARK(BM_ServiceHitRateSweep)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Threads(4)
    ->UseRealTime();

void BM_ServiceHandleInline(benchmark::State& state) {
  Server server;
  const std::string line =
      request_line(make_matrix(128, 16, 7), "characterize", "");
  for (auto _ : state) {
    const std::string response = server.handle(line);
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceHandleInline);

/// A characterize line shaped like perfbench's fleet_fresh requests:
/// integer entries (tens to thousands), no labels.
std::string integer_line(std::size_t tasks, std::size_t machines,
                         std::uint64_t seed) {
  auto rng = hetero::etcgen::make_rng(seed);
  std::vector<double> machine(machines);
  for (double& m : machine) m = hetero::etcgen::uniform(rng, 1.0, 10.0);
  std::string line = "{\"kind\":\"characterize\",\"etc\":[";
  for (std::size_t i = 0; i < tasks; ++i) {
    const double task = hetero::etcgen::uniform(rng, 1.0, 100.0);
    line += i ? ",[" : "[";
    for (std::size_t j = 0; j < machines; ++j) {
      if (j) line += ',';
      line += std::to_string(
          1 + static_cast<std::uint64_t>(
                  task * machine[j] * hetero::etcgen::uniform(rng, 0.5, 1.5) *
                  10.0));
    }
    line += ']';
  }
  line += "]}";
  return line;
}

void parse_request_loop(benchmark::State& state, const std::string& line) {
  for (auto _ : state) {
    const hetero::svc::Request request = hetero::svc::parse_request(line);
    benchmark::DoNotOptimize(&request);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}

// The text layers of a cold characterize, measured without a server.
// Args = {tasks, machines}; 64x8 is the perfbench fleet_fresh shape.
void BM_ParseRequest(benchmark::State& state) {
  parse_request_loop(
      state, integer_line(static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(1)), 7));
}
BENCHMARK(BM_ParseRequest)->Args({64, 8})->Args({128, 16});

// The same for to_json(EtcMatrix) output: labels, and every entry a
// 17-digit double, which is from_chars's slow case.
void BM_ParseRequestFullPrecision(benchmark::State& state) {
  parse_request_loop(
      state, request_line(make_matrix(static_cast<std::size_t>(state.range(0)),
                                      static_cast<std::size_t>(state.range(1)),
                                      7),
                          "characterize", ""));
}
BENCHMARK(BM_ParseRequestFullPrecision)->Args({64, 8})->Args({128, 16});

// svc::cache_key of a parsed BM_ParseRequest line: the svc.cache_key_us
// layer, which the loop thread pays on every cacheable request.
void BM_CacheKey(benchmark::State& state) {
  const hetero::svc::Request request = hetero::svc::parse_request(
      integer_line(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)), 7));
  for (auto _ : state)
    benchmark::DoNotOptimize(hetero::svc::cache_key(request));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheKey)->Args({64, 8})->Args({128, 16});

void BM_CharacterizeResultJson(benchmark::State& state) {
  const auto ecs = make_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 7)
                       .to_ecs();
  const auto report = hetero::core::characterize(ecs);
  for (auto _ : state) {
    const std::string json = hetero::io::to_json(report, ecs);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CharacterizeResultJson)->Args({64, 8})->Args({128, 16});

// ---------------------------------------------------------------------------
// TCP harness mode (--clients=N).

struct HarnessOptions {
  std::size_t clients = 0;  // 0 = harness mode not requested
  std::size_t requests = 100;
  std::size_t workers = 1;
  std::size_t threads = 0;
  std::size_t pipeline = 1;
  double open_rps = 0.0;
  std::size_t distinct = 1;
  bool stream = false;
  std::size_t stream_tasks = 128;
  std::size_t stream_machines = 16;
  std::size_t stream_batch = 1;
  std::string connect_host;  // empty = in-process server
  std::uint16_t connect_port = 0;
};

// Extracts --key=value flags this harness owns, compacting argv so the
// rest still flows into benchmark::Initialize. Returns false on a
// malformed value.
bool parse_harness_args(int* argc, char** argv, HarnessOptions* h) {
  int kept = 1;
  bool ok = true;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    try {
      const char* v = nullptr;
      if ((v = value("--clients=")) != nullptr) {
        h->clients = std::stoul(v);
      } else if ((v = value("--requests=")) != nullptr) {
        h->requests = std::stoul(v);
      } else if ((v = value("--workers=")) != nullptr) {
        h->workers = std::stoul(v);
      } else if ((v = value("--threads=")) != nullptr) {
        h->threads = std::stoul(v);
      } else if ((v = value("--pipeline=")) != nullptr) {
        h->pipeline = std::stoul(v);
      } else if ((v = value("--open-rps=")) != nullptr) {
        h->open_rps = std::stod(v);
      } else if ((v = value("--distinct=")) != nullptr) {
        h->distinct = std::stoul(v);
      } else if ((v = value("--stream=")) != nullptr) {
        h->stream = std::stoul(v) != 0;
      } else if ((v = value("--stream-size=")) != nullptr) {
        const std::string rc = v;
        const auto x = rc.find('x');
        if (x == std::string::npos) return false;
        h->stream_tasks = std::stoul(rc.substr(0, x));
        h->stream_machines = std::stoul(rc.substr(x + 1));
      } else if ((v = value("--stream-batch=")) != nullptr) {
        h->stream_batch = std::stoul(v);
      } else if ((v = value("--connect=")) != nullptr) {
        const std::string hp = v;
        const auto colon = hp.rfind(':');
        if (colon == std::string::npos) return false;
        h->connect_host = hp.substr(0, colon);
        h->connect_port =
            static_cast<std::uint16_t>(std::stoul(hp.substr(colon + 1)));
      } else {
        argv[kept++] = argv[i];
      }
    } catch (const std::exception&) {
      ok = false;
    }
  }
  *argc = kept;
  return ok;
}

// Delta-stream workload: `update` request lines cycling over distinct
// cells of the subscribed matrix, `batch` cells per request, values
// alternating between two positive levels so every update genuinely moves
// the matrix (and the session's warm re-evaluation runs every time).
std::vector<std::string> stream_update_lines(std::size_t tasks,
                                             std::size_t machines,
                                             std::size_t batch) {
  constexpr std::size_t kDistinctLines = 64;
  std::vector<std::string> lines;
  std::size_t cell = 0;
  for (std::size_t i = 0; i < kDistinctLines; ++i) {
    std::string line = "{\"kind\":\"update\",\"set\":[";
    for (std::size_t b = 0; b < batch; ++b, ++cell) {
      const std::size_t task = cell % tasks;
      const std::size_t machine = (cell / tasks) % machines;
      const double value = 1.0 + 0.25 * static_cast<double>(cell % 5);
      if (b > 0) line += ',';
      line += "{\"task\":" + std::to_string(task) +
              ",\"machine\":" + std::to_string(machine) +
              ",\"etc\":" + std::to_string(value) + "}";
    }
    line += "]}";
    lines.push_back(std::move(line));
  }
  return lines;
}

int run_harness(const HarnessOptions& h) {
  std::vector<std::string> lines;
  hetero::svc::LoadGenOptions gen;
  if (h.stream) {
    const std::size_t batch = std::max<std::size_t>(1, h.stream_batch);
    gen.prologue_lines.push_back(request_line(
        make_matrix(h.stream_tasks, h.stream_machines, 7), "subscribe", ""));
    lines = stream_update_lines(h.stream_tasks, h.stream_machines, batch);
  } else {
    const std::size_t distinct = h.distinct == 0 ? 1 : h.distinct;
    for (std::size_t i = 0; i < distinct; ++i)
      lines.push_back(
          request_line(make_matrix(128, 16, 7 + i), "characterize", ""));
  }

  gen.clients = h.clients;
  gen.requests_per_client = h.requests;
  gen.pipeline = h.pipeline;
  gen.open_loop_rps = h.open_rps;

  std::unique_ptr<Server> server;
  std::unique_ptr<hetero::svc::EventLoopServer> loop;
  if (h.connect_host.empty()) {
    ServerOptions options;
    options.threads = h.threads;
    // Admission depth sized to the client population so a cold burst is
    // absorbed instead of bouncing off a 256-deep queue.
    options.queue_depth = std::max<std::size_t>(1024, h.clients * 2);
    server = std::make_unique<Server>(options);
    hetero::svc::EventLoopOptions loop_options;
    loop_options.workers = h.workers;
    loop = std::make_unique<hetero::svc::EventLoopServer>(*server,
                                                          loop_options);
    if (!loop->start(std::cerr)) return 1;
    gen.host = "127.0.0.1";
    gen.port = loop->port();
  } else {
    gen.host = h.connect_host;
    gen.port = h.connect_port;
  }

  const auto report = hetero::svc::run_load(lines, gen);
  if (loop) {
    loop->request_shutdown();
    loop->wait();
  }
  std::cout << report.to_json() << '\n';
  if (!report.ok) {
    std::cerr << "perf_service: load run FAILED (connect_failures="
              << report.connect_failures << " malformed=" << report.malformed
              << " dropped=" << report.dropped << " timed_out="
              << (report.timed_out ? "yes" : "no") << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions harness;
  if (!parse_harness_args(&argc, argv, &harness)) {
    std::cerr << "perf_service: malformed harness flag\n";
    return 2;
  }
  if (harness.clients > 0 || !harness.connect_host.empty()) {
    if (harness.clients == 0) harness.clients = 100;
    return run_harness(harness);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
