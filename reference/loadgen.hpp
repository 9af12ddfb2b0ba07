// Non-blocking load-generator harness for the characterization service.
// A client of the service, not part of it: bench/perf_service and the
// svc_equiv tests link it from hetero_reference.
//
// One LoadGen thread drives up to tens of thousands of concurrent TCP
// client connections from a single epoll loop (mirroring the server's
// event-loop architecture, so neither side burns a thread per
// connection). Two arrival models:
//
//  - closed loop (the default): every client keeps `pipeline` requests in
//    flight and issues the next one the moment a response arrives — the
//    classic saturation benchmark, measuring peak sustainable throughput;
//  - open loop: clients issue requests on a fixed global schedule
//    (`open_loop_rps` across all clients) regardless of response arrival,
//    exposing queueing behaviour under a load the service does not
//    control.
//
// Every response line is validated (it must be a well-formed protocol
// envelope echoing ok:true/false); malformed lines, dropped responses
// (connection closed with requests still owed), and failed connects make
// the run fail loudly — report().ok is false and perf_service exits
// non-zero, so a benchmark number can never paper over a broken server.
//
// Latency is recorded per request into the metrics registry's
// LatencyHistogram (power-of-two microsecond buckets), and the report
// carries p50/p90/p99 from its snapshot. With pipeline > 1 the
// send-timestamp queue is matched to responses FIFO per connection, which
// is exact for in-order responses and a tight approximation otherwise
// (the service may complete out of order under load).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/metrics.hpp"

namespace hetero::svc {

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent client connections.
  std::size_t clients = 100;
  /// Requests each client issues over the run (closed loop) or the cap on
  /// what the schedule may issue per client (open loop).
  std::size_t requests_per_client = 100;
  /// In-flight requests per connection in closed-loop mode.
  std::size_t pipeline = 1;
  /// 0 = closed loop; > 0 = open loop at this many requests/s aggregated
  /// across all clients.
  double open_loop_rps = 0.0;
  /// Lines every client sends once, in order, immediately after its
  /// connect and before the measured stream starts (e.g. a `subscribe`
  /// establishing a streaming session on the connection). Their responses
  /// are awaited but excluded from sent/received/latency; a non-ok
  /// prologue response counts as prologue_failures and fails the run.
  std::vector<std::string> prologue_lines;
  /// Abort the run (marking it failed) if it exceeds this wall budget.
  std::chrono::milliseconds time_limit{60000};
};

struct LoadGenReport {
  std::size_t clients = 0;
  std::size_t connect_failures = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ok_true = 0;    // "ok":true responses
  std::uint64_t ok_false = 0;   // well-formed protocol errors (408/429/...)
  std::uint64_t malformed = 0;  // lines that are not protocol envelopes
  std::uint64_t dropped = 0;    // sent - received at connection close
  std::uint64_t prologue_failures = 0;  // non-ok prologue responses
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double elapsed_s = 0.0;
  double requests_per_s = 0.0;
  LatencyHistogram::Snapshot latency;
  bool timed_out = false;
  /// True only when every sent request produced a well-formed response
  /// and every connection was established.
  bool ok = false;

  /// Single-line JSON rendering (the perf_service --clients report).
  std::string to_json() const;
};

/// Runs one load-generation pass: `clients` connections to host:port, each
/// cycling through `request_lines` (round-robin per connection, offset by
/// connection index so concurrent clients do not send in lockstep).
/// Request lines must be complete NDJSON request objects WITHOUT the
/// trailing newline. Blocks until every client finished or failed.
LoadGenReport run_load(const std::vector<std::string>& request_lines,
                       const LoadGenOptions& options);

}  // namespace hetero::svc
