// SyncTracer — each node's live status record and its view-synchronization
// spans.
//
// The tracer owns one record per node: cumulative cost meters plus the
// live counters a status reply serves (view, commits, last committed
// view, mempool depth, requests committed, ever-Byzantine). There are
// two message meters, each counting messages and bytes: one for every
// class, which the status reply serves, and one for pacemaker-class
// (view-sync) messages only, which spans read. The transport's send tap
// (runtime::SendTap) feeds both, once per copy a node puts on the wire
// to another process. It turns the pacemaker's sync-started signal plus
// the node's view entries into SyncSpans whose costs are deltas of the
// pacemaker-class meter and of the authenticator op counters. It is
// *passive*: it never draws randomness, schedules events, or touches
// protocol state, so it cannot perturb a deterministic run (the
// golden-digest tests pin this). Every Cluster and SoloNodeRuntime has
// one, on both transports, and status() is the one place a NodeStatus is
// built.
//
// Threading: on the sim transport everything runs on one thread. On TCP,
// node i's driver thread is the only writer of node i's record; status
// endpoint threads are concurrent readers. Per-node mutexes cover the
// span state, relaxed atomics cover the meters and counters (a status
// reply is a point-in-time sample, not a linearizable snapshot), and one
// cluster-wide mutex covers the completed-span ring.
//
// The completed-span ring keeps each span as a 64-byte PackedSpan (see
// obs/span.h for the saturation rules) in a deque, oldest first: a full
// ring drops its front span as the next one arrives, so it grows in
// fixed-size blocks and never copies itself. completed_spans() is a view
// that unpacks spans as they are read. Read it between run_for slices
// (as MetricsCollector's readers already do), never while a node thread
// may still complete a span.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
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
  /// Completed spans kept by default; a full ring holds 4 MiB.
  static constexpr std::size_t kDefaultMaxSpans = 1 << 16;

  /// `max_spans` bounds the completed-span ring (0 = unbounded).
  explicit SyncTracer(std::uint32_t n, std::size_t max_spans = kDefaultMaxSpans);

  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  // -- feeds (node `id`'s driver thread only) ------------------------------

  /// The op counters node `id` installs into its Signer/AuthView.
  [[nodiscard]] crypto::AuthOpCounters& auth_counters(ProcessId id) {
    return nodes_[id]->auth;
  }

  /// One protocol message of class `msg_class`, `bytes` wire bytes, left
  /// node `id` for another process.
  void note_sent(ProcessId id, MsgClass msg_class, std::uint64_t bytes) noexcept;

  /// Node `id`'s pacemaker began spending resources to leave `current`,
  /// aiming for `target`. First start wins while a span is open.
  void on_sync_started(ProcessId id, TimePoint at, View current, View target);

  /// Node `id` entered `view`: records the view, closes the open span
  /// (if any) and returns the completed span; nullopt when no sync
  /// episode was in progress (e.g. the happy-path view entry at startup).
  std::optional<SyncSpan> on_view_entered(ProcessId id, TimePoint at, View view);

  /// Node `id` committed a block of view `view`.
  void note_commit(ProcessId id, View view) noexcept;
  /// Node `id` ran a non-honest behavior (sticky).
  void note_byzantine(ProcessId id) noexcept;
  /// Node `id`'s mempool held `depth` pending requests when sampled.
  void note_mempool_depth(ProcessId id, std::uint64_t depth) noexcept;
  /// One of node `id`'s workload requests committed.
  void note_request_committed(ProcessId id) noexcept;

  // -- reads (any thread) --------------------------------------------------

  /// Node `id`'s messages and bytes sent, every class.
  [[nodiscard]] std::uint64_t msgs_sent(ProcessId id) const noexcept;
  [[nodiscard]] std::uint64_t bytes_sent(ProcessId id) const noexcept;
  [[nodiscard]] crypto::AuthOpSnapshot auth_snapshot(ProcessId id) const noexcept {
    return nodes_[id]->auth.snapshot();
  }

  /// The open span on node `id` with costs accrued up to `now`, if any.
  [[nodiscard]] std::optional<SyncSpan> open_span(ProcessId id, TimePoint now) const;
  /// The most recently completed span on node `id`, if any.
  [[nodiscard]] std::optional<SyncSpan> last_span(ProcessId id) const;
  /// Node `id`'s status record, its open span measured up to `now`
  /// (pipeline_queue_depth is left 0: the verify pool is the host's).
  [[nodiscard]] NodeStatus status(ProcessId id, TimePoint now) const;

  /// The completed-span ring, oldest first. The view is valid until the
  /// next span completes; read it between run_for slices.
  [[nodiscard]] CompletedSpans completed_spans() const { return CompletedSpans(completed_); }
  [[nodiscard]] std::size_t completed_count() const;
  /// Completed spans evicted from the ring because of max_spans.
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  struct PerNode {
    crypto::AuthOpCounters auth;
    std::atomic<std::uint64_t> msgs{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> pacemaker_msgs{0};  // spans read these two
    std::atomic<std::uint64_t> pacemaker_bytes{0};
    std::atomic<View> view{0};
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> last_commit{0};
    std::atomic<bool> ever_byzantine{false};
    std::atomic<std::uint64_t> mempool{0};
    std::atomic<std::uint64_t> requests{0};

    mutable std::mutex mu;  // guards the span fields below
    bool open = false;
    SyncSpan span;  // identity + start fields while open
    std::uint64_t base_pacemaker_msgs = 0;
    std::uint64_t base_pacemaker_bytes = 0;
    crypto::AuthOpSnapshot base_auth;
    std::optional<SyncSpan> last;
  };

  // unique_ptr for stable addresses (atomics and mutexes don't move).
  std::vector<std::unique_ptr<PerNode>> nodes_;
  std::size_t max_spans_;

  mutable std::mutex completed_mu_;
  /// The ring, oldest first. Once it holds max_spans_ spans, each new one
  /// evicts the front.
  std::deque<PackedSpan> completed_;
  std::uint64_t dropped_ = 0;
};

}  // namespace lumiere::obs
