// The lock-rank registry: one static rank per mutex site in the tree.
//
// Ranks encode the only acquisition order the codebase permits: a thread
// holding a mutex may acquire another only if the new rank is strictly
// greater. Ranks follow the request pipeline — session, then cache, then
// compute — with the response-delivery mutexes above everything, so
// a worker that still held a pipeline lock while delivering (it never
// does today) would stay legal, while delivery code calling back *down*
// into the pipeline (the actual deadlock shape for this architecture)
// inverts the order and is reported.
//
// Gaps of 100 leave room to slot new subsystems (the src/sim event engine,
// cross-process shard forwarding) between existing layers without
// renumbering. When adding a rank: place it by asking "while holding this,
// which existing mutexes may the code legitimately take next?" — they must
// all rank higher — and document the site next to the constant.
#pragma once

namespace hetero::support {

// -- Pipeline layer: locks taken on the request path, in pipeline order.
//    Admission takes no lock: svc::Server counts waiting jobs in an
//    atomic, and the pool's own queue (kRankPoolQueue) holds them.

/// svc::StreamSession::mutex_ — per-connection streaming view state
/// (update/subscribe). Session compute runs entirely under it and takes
/// no further locks; ranked below the cache so a future session path
/// that consulted the cache would stay legal.
inline constexpr int kRankStreamSession = 150;

/// svc::ResultCache::Shard::mutex — one per shard; the cache never holds
/// two shards at once, so all shards share one rank (equal rank forbids
/// shard-to-shard nesting, which is exactly the invariant).
inline constexpr int kRankCacheShard = 200;

// -- Compute layer: the thread pool and its join primitives.

/// par::ThreadPool::mutex_ — the work queue; submitted from the pipeline
/// (hence above the pipeline layer), never while a pool job holds it.
inline constexpr int kRankPoolQueue = 300;

/// parallel_for's per-call ClaimState::mutex — error/join bookkeeping of
/// one parallel range; taken by workers and the calling thread, nested
/// inside nothing.
inline constexpr int kRankParallelForState = 310;

// -- Delivery layer: locks protecting response fan-out. Highest ranks:
//    delivery may be entered from any pipeline stage, but must never call
//    back down into the pipeline while holding one of these.

/// serve_stream's output-stream mutex (serializes response writes).
inline constexpr int kRankStreamOut = 400;

/// serve_stream's in-flight counter mutex (drain bookkeeping). Ranked
/// above the out mutex to match the callback's write-then-count sequence
/// should the two scopes ever merge.
inline constexpr int kRankStreamFlight = 410;

/// The event loop's per-connection ConnWriter::mutex — the socket, its
/// spill buffer and closed flag, shared by the loop thread and the pool
/// workers that write their responses directly. Nests inside nothing and
/// takes nothing; ranked below the channel so a writer that posted its
/// notice while still holding it would stay legal.
inline constexpr int kRankConnWriter = 420;

/// The event loop's WorkerChannel::mutex — completion notices from pool
/// workers back to the owning loop thread.
inline constexpr int kRankWorkerChannel = 430;

// -- src/sim: no ranks. The discrete-event simulator (sim::Engine) is
//    single-threaded by construction — one run is a pure function of
//    (scenario, options, scheduler) and owns all of its state, so it
//    takes no locks. Concurrent simulations each get their own Engine;
//    if a shared-state sim variant ever appears, slot its ranks into the
//    200s (it would sit between the cache and the compute pool).

}  // namespace hetero::support
