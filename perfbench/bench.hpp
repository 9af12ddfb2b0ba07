// Shared pieces of the end-to-end benchmark: the seeded input generator,
// exact percentiles over per-op samples, the metric/outcome records every
// workload returns, and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// SplitMix64: every input of every workload is a pure function of --seed
/// through this generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// 64-bit fingerprint of a byte string, eight bytes at a time. Response
/// checks compare (length, fingerprint) against the reference response.
std::uint64_t fingerprint(std::string_view bytes);

/// Exact nearest-rank percentile of the samples (q in [0, 1]); 0 if empty.
double percentile(std::vector<double> samples, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced ones; `conditions` holds JSON object members (no
/// braces) describing how the run was made.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string conditions;
};

/// Running mean of per-call samples.
struct Mean {
  double sum = 0.0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// The end-to-end throughput and latency figures of a timed phase, robust
/// to host contention. The phase's ops, in completion order (`done[i]` is
/// when op i completed and `latency_us[i]` how long it took), are cut into
/// kChunks consecutive chunks of equal op count — fewer for a percentile
/// when a chunk would keep under ten samples beyond it. Each chunk yields
/// its ops per second, p50 and p99; the phase reports its best chunk for
/// each: the highest rate and the lowest percentiles. Contention from other
/// tenants of the host comes in bursts that slow some of a run's chunks; a
/// change to the program moves every chunk, the best one included.
inline constexpr std::size_t kChunks = 10;
void report_phase(Outcome& out, Clock::time_point start,
                  const std::vector<Clock::time_point>& done,
                  const std::vector<double>& latency_us);

/// Spans of the traced run, kept in memory and written when the run ends.
/// Spans of one op share `op`; `parent` is the id of the enclosing span
/// (0 for an op's root span). Past `cap` spans are counted, not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 200000);
  std::uint32_t add(std::uint64_t op, std::uint32_t parent, const char* name,
                    Clock::time_point start, Clock::time_point end);
  /// Id the next add() will return, for a root whose children are recorded
  /// before it (a root's end is known last).
  std::uint32_t reserve_id() { return next_id_++; }
  void add_with_id(std::uint32_t id, std::uint64_t op, std::uint32_t parent,
                   const char* name, Clock::time_point start,
                   Clock::time_point end);
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  /// NDJSON, one span per line, times in microseconds since the log began.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t op;
    std::uint32_t id;
    std::uint32_t parent;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
  std::size_t cap_;
  std::uint64_t dropped_ = 0;
  std::uint32_t next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

/// Times `f()`, records it as a child span of `parent`, and returns the
/// elapsed microseconds.
template <class F>
double timed_span(SpanLog& log, std::uint64_t op, std::uint32_t parent,
                  const char* name, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  log.add(op, parent, name, t0, t1);
  return micros(t1 - t0);
}

/// Median of the set-up repetitions; every workload sets up this many times
/// per run and keeps the last.
inline constexpr int kSetupReps = 15;

Outcome run_fleet_repeat(const Options& options);
Outcome run_fleet_fresh(const Options& options);
Outcome run_session_churn(const Options& options);
Outcome run_sim_backlog(const Options& options);

/// Time the process entered main(); the first set-up repetition is timed
/// from here.
Clock::time_point process_start();

}  // namespace perfbench
