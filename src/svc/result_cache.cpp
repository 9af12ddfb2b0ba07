#include "svc/result_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace hetero::svc {

ContentHasher& ContentHasher::add_string(std::string_view s) noexcept {
  add_u64(s.size());
  // Whole words, then the tail zero-padded: the length above tells
  // "a" from "a\0".
  std::size_t at = 0;
  for (; at + 8 <= s.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, s.data() + at, 8);
    add_u64(word);
  }
  if (at < s.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + at, s.size() - at);
    add_u64(word);
  }
  return *this;
}

ResultCache::ResultCache(std::size_t shards, std::size_t capacity_per_shard)
    : capacity_per_shard_(capacity_per_shard == 0 ? 1 : capacity_per_shard) {
  const std::size_t count = std::bit_ceil(shards == 0 ? std::size_t{1}
                                                      : shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = count - 1;
}

std::optional<std::string> ResultCache::get(std::uint64_t key) {
  auto hit = probe(key);
  if (!hit) misses_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::optional<std::string> ResultCache::probe(std::uint64_t key) {
  Shard& s = shard_for(key);
  const support::MutexLock lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return std::nullopt;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ResultCache::put(std::uint64_t key, std::string value) {
  Shard& s = shard_for(key);
  const support::MutexLock lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Same key implies same content hash; keep the existing payload (it is
    // bit-identical by the cache contract) and just refresh recency.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(key, std::move(value));
  s.index.emplace(key, s.lru.begin());
  entries_.fetch_add(1, std::memory_order_relaxed);
  if (s.lru.size() > capacity_per_shard_) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

namespace {

// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash for ring points.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardMap::ShardMap(std::size_t shard_count, std::size_t worker_count,
                   std::size_t replicas)
    : worker_count_(worker_count == 0 ? 1 : worker_count) {
  if (shard_count == 0) shard_count = 1;
  if (replicas == 0) replicas = 1;
  // Ring points: (hash, worker), sorted by hash. Ties cannot occur in
  // practice (64-bit mixes of distinct inputs); if one did, the lower
  // worker index wins deterministically via the pair ordering.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring;
  ring.reserve(worker_count_ * replicas);
  for (std::size_t w = 0; w < worker_count_; ++w)
    for (std::size_t r = 0; r < replicas; ++r)
      ring.emplace_back(mix64((static_cast<std::uint64_t>(w) << 32) | r), w);
  std::sort(ring.begin(), ring.end());
  owner_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::uint64_t h = mix64(0xABCDEF0000000000ull + s);
    auto it = std::lower_bound(
        ring.begin(), ring.end(),
        std::make_pair(h, std::size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == ring.end()) it = ring.begin();  // wrap around the ring
    owner_[s] = it->second;
  }
}

ResultCache::Stats ResultCache::stats() const noexcept {
  Stats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.entries = entries_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace hetero::svc
