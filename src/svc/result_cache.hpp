// Sharded LRU result cache for the characterization service.
//
// Keys are 64-bit content hashes of (request kind, ECS/ETC matrix bits,
// options); values are the fully serialized result payloads, so a hit
// skips parsing-to-response work entirely and is bit-identical to what the
// cold path produced. The key space is split across N shards, each with
// its own mutex and LRU list, so concurrent hits on different matrices
// never contend on a lock — the only cross-shard state is the relaxed
// atomic stats counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace hetero::svc {

/// Incremental 64-bit content hasher, a word at a time: each 8-byte word
/// goes through a full-avalanche mixer and is folded into the state by an
/// odd multiply, so the digest depends on word order. The mix of a word
/// does not depend on the state, so consecutive words overlap in the
/// pipeline and only the xor-multiply chain is serial. Strings are
/// length-prefixed, so concatenation ambiguity cannot alias two different
/// requests onto one key.
class ContentHasher {
 public:
  ContentHasher& add_u64(std::uint64_t v) noexcept {
    hash_ = (hash_ ^ mix(v)) * kFold;
    return *this;
  }
  ContentHasher& add_double(double v) noexcept {  // bit pattern: -0 != +0
    return add_u64(std::bit_cast<std::uint64_t>(v));
  }
  ContentHasher& add_string(std::string_view s) noexcept;
  /// Mixed once more, so that the low bits (the shard index) depend on
  /// every bit of every word.
  std::uint64_t digest() const noexcept { return mix(hash_); }

 private:
  static constexpr std::uint64_t kFold = 0x9E3779B97F4A7C15ull;  // odd

  /// SplitMix64's finalizer: a bijection in which every input bit flips
  /// each output bit with probability ~1/2.
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::uint64_t hash_ = 0x6A09E667F3BCC908ull;
};

class ResultCache {
 public:
  /// `shards` is rounded up to a power of two (min 1); each shard holds at
  /// most `capacity_per_shard` entries (min 1) before evicting its LRU
  /// entry.
  ResultCache(std::size_t shards, std::size_t capacity_per_shard);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached payload and refreshes its recency, or nullopt.
  std::optional<std::string> get(std::uint64_t key);
  /// Like get, but a miss is not counted: for an early lookup that a
  /// counted get repeats when it misses, so that stats() counts each
  /// request once.
  std::optional<std::string> probe(std::uint64_t key);

  /// Inserts (or refreshes) a payload, evicting the shard's LRU entry when
  /// over capacity.
  void put(std::uint64_t key, std::string value);

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Which shard `key` lives in (stable for the cache's lifetime). The
  /// event loop uses this with a ShardMap to decide whether the calling
  /// worker owns the key's shard and may serve a warm hit inline.
  std::size_t shard_index(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key & shard_mask_);
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;  // current
  };
  Stats stats() const noexcept;

 private:
  struct Shard {
    // All shards share one rank: a thread must never hold two shard
    // mutexes at once (the equal-rank check enforces exactly that).
    support::Mutex mutex{support::kRankCacheShard, "cache-shard"};
    // LRU order: front = most recent. The map holds iterators into the
    // list; list nodes are stable under splice.
    std::list<std::pair<std::uint64_t, std::string>> lru
        HETERO_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, std::string>>::
                           iterator>
        index HETERO_GUARDED_BY(mutex);
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    // The digest's low bits are well mixed; the mask selects the shard.
    return *shards_[key & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_;
  std::size_t capacity_per_shard_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> entries_{0};
};

/// Consistent-hash assignment of cache shards to event-loop workers.
///
/// Workers place `replicas` points each on a 64-bit hash ring; a shard
/// belongs to the worker owning the first ring point at or after the
/// shard's own hash. The assignment is a pure function of (shard_count,
/// worker_count, replicas), so every worker computes the same map without
/// coordination, and growing the fleet by one worker reassigns only the
/// shards whose ring successor changed (~1/workers of them) instead of
/// reshuffling everything — warm shards stay with their worker across
/// resizes.
///
/// Ownership is used as a *serving* hint, not a partition: any worker may
/// read or write any shard through the shared ResultCache; the owner is
/// simply the worker allowed to answer warm hits inline on its loop
/// thread, which keeps each shard's mutex on one core in the steady state.
class ShardMap {
 public:
  ShardMap(std::size_t shard_count, std::size_t worker_count,
           std::size_t replicas = 64);

  std::size_t owner(std::size_t shard) const noexcept {
    return owner_[shard];
  }
  std::size_t shard_count() const noexcept { return owner_.size(); }
  std::size_t worker_count() const noexcept { return worker_count_; }

 private:
  std::vector<std::size_t> owner_;  // shard index -> worker index
  std::size_t worker_count_;
};

}  // namespace hetero::svc
