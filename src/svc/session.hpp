// Per-connection streaming characterization state: the stateful half of
// the `subscribe`/`update` request kinds.
//
// A subscribe installs (or replaces) a core::MeasureView over the
// connection's ETC matrix plus a core::EtcEstimator tracking noisy runtime
// observations; updates then stream deltas instead of re-sending matrices.
// Session requests are inherently uncacheable (the same bytes produce
// different results as the view evolves), so they never pass through
// admission control, the result cache, or the event loop's raw-line memo.
// Each front end keys exactly one session per connection and hands it one
// request at a time: the event loop and serve_stream run each on a pool
// worker and dispatch that connection's next session request only after
// it is answered; Server::handle runs them inline.
//
// Thread safety: all state is guarded by a ranked mutex
// (support::kRankStreamSession). Session compute takes no further locks,
// so the rank can sit anywhere; it is placed below the cache to keep a
// future cache-consulting session path legal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/etc_estimator.hpp"
#include "core/measure_view.hpp"
#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "svc/protocol.hpp"

namespace hetero::svc {

class StreamSession {
 public:
  /// Handles one subscribe or update request, returning the result payload
  /// (no envelope): the re-evaluated measures plus view statistics. Throws
  /// hetero::Error on protocol violations — update before subscribe,
  /// non-finite subscribe matrix, out-of-range indices, non-positive
  /// values, or an update tripping the Sinkhorn scale-overflow guard — all
  /// surfaced as 400 responses. Deltas apply sequentially; a throwing
  /// delta aborts the request at that point with every prior delta in the
  /// request still applied (each delta is individually atomic).
  std::string handle(const Request& request);

  /// True once a subscribe has installed a view.
  bool active() const;

 private:
  std::string apply_subscribe(const Request& request)
      HETERO_REQUIRES(mutex_);
  std::string apply_update(const Request& request) HETERO_REQUIRES(mutex_);
  std::string result_payload(std::uint64_t fed, std::uint64_t observed,
                             std::uint64_t cold_before)
      HETERO_REQUIRES(mutex_);

  mutable support::Mutex mutex_{support::kRankStreamSession,
                                "stream-session"};
  std::optional<core::MeasureView> view_ HETERO_GUARDED_BY(mutex_);
  std::optional<core::EtcEstimator> estimator_ HETERO_GUARDED_BY(mutex_);
};

}  // namespace hetero::svc
