// perfbench: the end-to-end benchmark of the characterization service and
// the datacenter simulator. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// and prints, as its last stdout line, one JSON object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The line before it holds the run's conditions (threads, connections,
// seed). perfbench/README.md explains each workload and metric.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

std::uint64_t fingerprint(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0xff51afd7ed558ccdull;
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  h = (h ^ tail) * kMul;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of all samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = rank == 0 ? 0 : rank - 1;
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

namespace {

/// Bounds of chunk k of `chunks` equal chunks over n ops: [first, last).
std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                 std::size_t chunks,
                                                 std::size_t k) {
  return {k * n / chunks, (k + 1) * n / chunks};
}

/// The q-percentile of each chunk, with as many chunks (up to kChunks) as
/// leave ten samples beyond the percentile in every chunk.
std::vector<double> chunk_percentiles(const std::vector<double>& samples,
                                      double q) {
  const std::size_t n = samples.size();
  const auto beyond = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 - q) / 10.0);
  const std::size_t chunks = std::clamp<std::size_t>(beyond, 1, kChunks);
  std::vector<double> out;
  for (std::size_t k = 0; k < chunks; ++k) {
    const auto [first, last] = chunk_bounds(n, chunks, k);
    out.push_back(percentile(
        std::vector<double>(
            samples.begin() + static_cast<std::ptrdiff_t>(first),
            samples.begin() + static_cast<std::ptrdiff_t>(last)),
        q));
  }
  return out;
}

}  // namespace

void report_phase(Outcome& out, Clock::time_point start,
                  const std::vector<Clock::time_point>& done,
                  const std::vector<double>& latency_us) {
  const std::size_t n = done.size();
  const std::size_t chunks = std::clamp<std::size_t>(n, 1, kChunks);
  std::vector<double> rate;
  Clock::time_point from = start;
  for (std::size_t k = 0; k < chunks && n > 0; ++k) {
    const auto [first, last] = chunk_bounds(n, chunks, k);
    rate.push_back(static_cast<double>(last - first) /
                   seconds(done[last - 1] - from));
    from = done[last - 1];
  }
  out.end_to_end.push_back({"ops_per_s", percentile(rate, 1.0), "1/s"});
  out.end_to_end.push_back(
      {"latency_p50_us", percentile(chunk_percentiles(latency_us, 0.5), 0.0),
       "us"});
  out.end_to_end.push_back(
      {"latency_p99_us", percentile(chunk_percentiles(latency_us, 0.99), 0.0),
       "us"});
}

SpanLog::SpanLog(std::size_t cap) : cap_(cap) { spans_.reserve(1024); }

std::uint32_t SpanLog::add(std::uint64_t op, std::uint32_t parent,
                           const char* name, Clock::time_point start,
                           Clock::time_point end) {
  const std::uint32_t id = next_id_++;
  add_with_id(id, op, parent, name, start, end);
  return id;
}

void SpanLog::add_with_id(std::uint32_t id, std::uint64_t op,
                          std::uint32_t parent, const char* name,
                          Clock::time_point start, Clock::time_point end) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{op, id, parent, name, start, end});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& s : spans_) {
    const int n = std::snprintf(
        line, sizeof line,
        "{\"op\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
        "\"start_us\":%.3f,\"end_us\":%.3f}\n",
        static_cast<unsigned long long>(s.op), s.id, s.parent, s.name,
        micros(s.start - epoch_), micros(s.end - epoch_));
    out.write(line, n);
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ',';
    out += '"' + m.name + "\":{\"value\":" + number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + '}';
}

// Every per-layer metric a traced run reports, in output order. A workload
// reports 0 for a layer it never enters (fleet_repeat spends no time in
// sim, sim_backlog none in svc).
constexpr std::pair<const char*, const char*> kLayerCatalog[] = {
    {"io.frame_us", "us"},
    {"svc.parse_us", "us"},
    {"svc.cache_key_us", "us"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.envelope_us", "us"},
    {"svc.queue_wait_us", "us"},
    {"svc.compute_us", "us"},
    {"svc.socket_us", "us"},
    {"svc.session_update_us", "us"},
    {"core.characterize_us", "us"},
    {"core.standardize_us", "us"},
    {"core.sinkhorn_iterations", "count"},
    {"linalg.spectrum_us", "us"},
    {"io.result_json_us", "us"},
    {"core.view_warm_us", "us"},
    {"core.view_cold_share", "ratio"},
    {"core.view_cold_us", "us"},
    {"core.estimator_observe_ns", "ns"},
    {"sim.run_us", "us"},
    {"sched.plan_us", "us"},
    {"sim.engine_self_us", "us"},
    {"sim.events", "count"},
    {"sched.pending_mean", "count"},
    {"sched.pending_peak", "count"},
    {"sched.plan_share.greedy_mct", "ratio"},
    {"sched.plan_share.batch_min_min", "ratio"},
    {"sched.plan_share.batch_max_min", "ratio"},
    {"sched.plan_share.batch_min_min_ctl", "ratio"},
    {"setup.inputs_s", "s"},
    {"setup.parse_s", "s"},
    {"setup.server_s", "s"},
    {"setup.warm_s", "s"},
    {"trace.unattributed_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// The catalog in order, with the workload's measured values filled in.
std::vector<Metric> per_layer_output(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerCatalog) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const Metric& m) { return m.name == name; });
    out.push_back({name, it == measured.end() ? 0.0 : it->value, unit});
  }
  for (const Metric& m : measured)
    if (std::none_of(out.begin(), out.end(),
                     [&](const Metric& o) { return o.name == m.name; }))
      throw std::logic_error("per-layer metric missing from catalog: " +
                             m.name);
  return out;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fleet_repeat|fleet_fresh|"
               "session_churn|sim_backlog> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value == "1";
      else if (key == "--out") options.out_dir = value;
      else return usage(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Outcome outcome;
  std::vector<Metric> metrics;
  try {
    if (options.workload == "fleet_repeat")
      outcome = perfbench::run_fleet_repeat(options);
    else if (options.workload == "fleet_fresh")
      outcome = perfbench::run_fleet_fresh(options);
    else if (options.workload == "session_churn")
      outcome = perfbench::run_session_churn(options);
    else if (options.workload == "sim_backlog")
      outcome = perfbench::run_sim_backlog(options);
    else
      return usage(("unknown workload '" + options.workload + "'").c_str());
    metrics = options.trace ? per_layer_output(outcome.per_layer)
                            : outcome.end_to_end;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  std::cout << "{\"conditions\":{\"workload\":\"" << options.workload
            << "\",\"seed\":" << options.seed
            << ",\"seconds\":" << number(options.seconds)
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency() << ','
            << outcome.conditions << "}}\n";
  std::cout << "{\"correct\":" << (outcome.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << outcome.attempted
            << ",\"failed\":" << outcome.failed
            << ",\"metrics\":" << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
