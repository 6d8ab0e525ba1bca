// SyncTracer — per-node view-synchronization span bracketing.
//
// The tracer owns one cumulative cost meter per node (messages sent,
// bytes sent, authenticator ops) and turns the pacemaker's sync-started
// signal plus the node's view entries into SyncSpans whose costs are
// counter deltas. It is *passive*: it never draws randomness, schedules
// events, or touches protocol state, so enabling it cannot perturb a
// deterministic run (the golden-digest tests pin this).
//
// Threading: on the sim transport everything runs on one thread. On TCP,
// node i's driver thread is the only writer of node i's state; status
// endpoint threads are concurrent readers. Per-node mutexes cover the
// span state, relaxed atomics cover the cumulative meters, and one
// cluster-wide mutex covers the completed-span ring.
//
// The completed-span ring is a vector written round-robin once full;
// completed_spans() rotates it oldest-first in place and returns a
// reference to it rather than a copy. Read it between run_for slices
// (as MetricsCollector's readers already do), never while a node
// thread may still complete a span.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "crypto/auth_counters.h"
#include "obs/span.h"
#include "obs/status.h"

namespace lumiere::obs {

class SyncTracer {
 public:
  /// `max_spans` bounds the completed-span ring (0 = unbounded; benches
  /// that export every span use that).
  explicit SyncTracer(std::uint32_t n, std::size_t max_spans = 1 << 16);

  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  // -- feeds (node `id`'s driver thread only) ------------------------------

  /// The op counters node `id` installs into its Signer/AuthView.
  [[nodiscard]] crypto::AuthOpCounters& auth_counters(ProcessId id) {
    return nodes_[id]->auth;
  }

  /// One protocol message of `bytes` wire bytes left node `id`.
  void note_sent(ProcessId id, std::uint64_t bytes) noexcept;

  /// Node `id`'s pacemaker began spending resources to leave `current`,
  /// aiming for `target`. First start wins while a span is open.
  void on_sync_started(ProcessId id, TimePoint at, View current, View target);

  /// Node `id` entered `view`. Closes the open span (if any) and returns
  /// the completed span; nullopt when no sync episode was in progress
  /// (e.g. the happy-path view entry at startup).
  std::optional<SyncSpan> on_view_entered(ProcessId id, TimePoint at, View view);

  // -- reads (any thread) --------------------------------------------------

  [[nodiscard]] std::uint64_t msgs_sent(ProcessId id) const noexcept;
  [[nodiscard]] std::uint64_t bytes_sent(ProcessId id) const noexcept;
  [[nodiscard]] crypto::AuthOpSnapshot auth_snapshot(ProcessId id) const noexcept {
    return nodes_[id]->auth.snapshot();
  }

  /// The open span on node `id` with costs accrued up to `now`, if any.
  [[nodiscard]] std::optional<SyncSpan> open_span(ProcessId id, TimePoint now) const;
  /// The most recently completed span on node `id`, if any.
  [[nodiscard]] std::optional<SyncSpan> last_span(ProcessId id) const;
  /// Fills `status`'s cost meters and spans for node `id` (open span
  /// measured up to `now`).
  void report(ProcessId id, TimePoint now, NodeStatus& status) const;

  /// The completed-span ring, oldest first. The reference is valid until
  /// the next span completes; read it between run_for slices.
  [[nodiscard]] const std::vector<SyncSpan>& completed_spans() const;
  [[nodiscard]] std::size_t completed_count() const;
  /// Completed spans evicted from the ring because of max_spans.
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  struct PerNode {
    crypto::AuthOpCounters auth;
    std::atomic<std::uint64_t> msgs{0};
    std::atomic<std::uint64_t> bytes{0};

    mutable std::mutex mu;  // guards the span fields below
    bool open = false;
    SyncSpan span;  // identity + start fields while open
    std::uint64_t base_msgs = 0;
    std::uint64_t base_bytes = 0;
    crypto::AuthOpSnapshot base_auth;
    std::optional<SyncSpan> last;
  };

  // unique_ptr for stable addresses (atomics and mutexes don't move).
  std::vector<std::unique_ptr<PerNode>> nodes_;
  std::size_t max_spans_;

  mutable std::mutex completed_mu_;
  /// The ring. Once it holds max_spans_ spans, the next one overwrites
  /// the oldest, at completed_[oldest_]; a read rotates it back to
  /// oldest-first and resets oldest_ to 0.
  mutable std::vector<SyncSpan> completed_;
  mutable std::size_t oldest_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace lumiere::obs
