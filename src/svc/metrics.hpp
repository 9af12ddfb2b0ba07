// Metrics registry for the characterization service: lock-free counters and
// fixed-bucket latency histograms.
//
// Every mutation is a relaxed atomic increment — workers never share a
// cache line intentionally (per-kind slots are padded) and never take a
// lock, so instrumentation cost stays in the nanoseconds while the server
// is saturated. Reads take a consistent-enough snapshot (counters are
// monotone; slight skew between related counters during a storm is
// acceptable for operational metrics).
//
// Histograms use power-of-two microsecond buckets: bucket b counts samples
// in [2^(b-1), 2^b) us (bucket 0 is < 1 us). 28 buckets span sub-micro to
// ~2 minutes, which covers queue waits and compute times for any matrix
// the service would admit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hetero::svc {

/// The request kinds the protocol understands (order is the wire order of
/// the stats report; `invalid` collects unparseable requests).
enum class RequestKind {
  characterize,
  measures,
  schedule,
  whatif,
  stats,
  update,
  subscribe,
  invalid,
};
inline constexpr std::size_t kRequestKindCount = 8;

/// Protocol token for a kind ("characterize", ..., "invalid").
const char* kind_name(RequestKind kind) noexcept;

/// Token -> kind; RequestKind::invalid for an unknown token.
RequestKind parse_kind(const std::string& token) noexcept;

/// Fixed-bucket latency histogram; record() is lock-free and wait-free.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 28;

  void record(std::uint64_t micros) noexcept;

  /// Plain-data copy for reporting.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t max_us = 0;

    double mean_us() const;
    /// Upper bucket bound (us) below which `q` of the samples fall;
    /// 0 when empty. q in [0, 1].
    std::uint64_t quantile_upper_us(double q) const;
  };
  Snapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Counter + histogram registry, sliced per request kind. Shared by the
/// server and the one-shot CLI (--stats) so both report through one
/// instrumentation path.
class Metrics {
 public:
  struct KindCounters {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    LatencyHistogram queue_wait;
    LatencyHistogram compute;
  };

  KindCounters& kind(RequestKind k) noexcept {
    return per_kind_[static_cast<std::size_t>(k)];
  }
  const KindCounters& kind(RequestKind k) const noexcept {
    return per_kind_[static_cast<std::size_t>(k)];
  }

  void count_rejected_full() noexcept {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_rejected_deadline() noexcept {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Connection-level gauges, maintained by the epoll event loop. `active`
  /// is the only non-monotone member (incremented on accept, decremented
  /// on close).
  struct ConnectionGauges {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> active{0};
    std::atomic<std::uint64_t> timed_out{0};
    std::atomic<std::uint64_t> backpressure_closed{0};
    std::atomic<std::uint64_t> oversized_frames{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
  };
  ConnectionGauges& connections() noexcept { return connections_; }
  const ConnectionGauges& connections() const noexcept { return connections_; }

  /// Plain-data snapshot of the whole registry.
  struct Snapshot {
    struct Kind {
      std::string name;
      std::uint64_t received = 0;
      std::uint64_t completed = 0;
      std::uint64_t errors = 0;
      std::uint64_t cache_hits = 0;
      std::uint64_t cache_misses = 0;
      LatencyHistogram::Snapshot queue_wait;
      LatencyHistogram::Snapshot compute;
    };
    std::vector<Kind> kinds;  // one per RequestKind, in enum order
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_deadline = 0;
    struct Connections {
      std::uint64_t accepted = 0;
      std::uint64_t active = 0;
      std::uint64_t timed_out = 0;
      std::uint64_t backpressure_closed = 0;
      std::uint64_t oversized_frames = 0;
      std::uint64_t bytes_in = 0;
      std::uint64_t bytes_out = 0;
    } connections;
  };
  Snapshot snapshot() const;

 private:
  // Align per-kind slots out of each other's cache lines: a characterize
  // storm must not false-share with schedule counters.
  struct alignas(128) PaddedCounters : KindCounters {};
  std::array<PaddedCounters, kRequestKindCount> per_kind_{};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  ConnectionGauges connections_;
};

/// Machine-readable snapshot (the `stats` response payload).
std::string to_json(const Metrics::Snapshot& snapshot);

/// Console rendering (the shutdown dump and `hetero_cli --stats`). Kinds
/// with no traffic are omitted.
std::string render_text(const Metrics::Snapshot& snapshot);

}  // namespace hetero::svc
