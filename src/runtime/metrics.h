// Communication and latency accounting, matching Section 2's measures.
//
// The paper counts messages *sent by correct processors* and defines
// decision points t*_T as moments when some honest lead(v) produces a QC
// for view v. This collector:
//   * counts every honest-to-other send (self-delivery is not traffic),
//     bucketed by message type and by MsgClass;
//   * logs decisions (honest-leader QC formations) with the cumulative
//     message count at that instant, so any inter-decision window's cost
//     is a subtraction;
//   * derives the four Table 1 measures over a run.
//
// Threading: on the sim transport everything runs on one thread and the
// collector records directly (byte-identical to before threading
// existed). The TCP transport calls enable_threaded() — recording then
// appends raw events to sharded (mutex + vector) logs stamped with a
// global sequence number, and every query first replays the events,
// sorted by (time, seq), into an internal plain collector. Record from
// any driver thread; query between run_for slices.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "sim/network.h"

namespace lumiere::runtime {

class MetricsCollector final : public sim::NetworkObserver {
 public:
  MetricsCollector(std::uint32_t n, std::vector<bool> byzantine)
      : n_(n), byzantine_(std::move(byzantine)) {
    LUMIERE_ASSERT(byzantine_.size() == n_);
  }

  /// Switches to thread-safe capture (sharded event logs, merged on
  /// read). Call once, before any recording; the TCP Cluster does this at
  /// construction. Queries afterwards replay the sorted event stream into
  /// an internal plain collector, so derived measures are computed by
  /// exactly the same code as the single-threaded path.
  ///
  /// Lifetime footgun, by design-and-asserted: references returned by the
  /// log accessors (decisions(), queue_depth_log(), regime_marks(), ...)
  /// point into the replayed merge and are invalidated by the next query
  /// that observes new events — hold them only between run_for slices,
  /// and re-fetch after each slice. Querying
  /// *during* a slice is asserted against: the Cluster brackets its TCP
  /// driver threads with begin/end_recording_window(), and every query
  /// (they all funnel through base()) aborts while the window is open.
  void enable_threaded() { threaded_ = true; }
  [[nodiscard]] bool threaded() const noexcept { return threaded_; }

  /// Driver threads are live from here to end_recording_window():
  /// recording is safe, querying is not (asserted in base()).
  void begin_recording_window() noexcept {
    recording_live_.store(true, std::memory_order_relaxed);
  }
  void end_recording_window() noexcept {
    recording_live_.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording_window_open() const noexcept {
    return recording_live_.load(std::memory_order_relaxed);
  }

  // -- NetworkObserver -------------------------------------------------
  void on_send(TimePoint at, ProcessId from, ProcessId to, const Message& msg) override;
  void on_deliver(TimePoint, ProcessId, ProcessId, const Message&) override {}
  /// Bulk variant: one wire-size/type computation and one send-log
  /// checkpoint for all n-1 copies of a broadcast payload. Totals are
  /// identical to n-1 on_send calls.
  void on_broadcast(TimePoint at, ProcessId from, const Message& msg, std::uint32_t n) override;

  // -- decision log ------------------------------------------------------
  /// Called when node `leader` (as leader) produced a QC for `view`.
  /// Byzantine nodes' QCs are not decisions in the paper's sense.
  void record_qc_formed(TimePoint at, View view, ProcessId leader);

  struct Decision {
    TimePoint at;
    View view = -1;
    ProcessId leader = kNoProcess;
    std::uint64_t msgs_before = 0;  ///< cumulative honest sends at `at`
  };

  [[nodiscard]] const std::vector<Decision>& decisions() const { return base().decisions_; }
  [[nodiscard]] std::uint64_t total_honest_msgs() const { return base().total_msgs_; }
  [[nodiscard]] std::uint64_t total_honest_bytes() const { return base().total_bytes_; }
  [[nodiscard]] std::uint64_t count_for_type(std::uint32_t type_id) const {
    const auto& by_type = base().by_type_;
    const auto it = by_type.find(type_id);
    return it == by_type.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t pacemaker_msgs() const { return base().pacemaker_msgs_; }
  [[nodiscard]] std::uint64_t consensus_msgs() const { return base().consensus_msgs_; }
  [[nodiscard]] std::uint64_t dissem_msgs() const { return base().dissem_msgs_; }
  [[nodiscard]] std::uint64_t dissem_bytes() const { return base().dissem_bytes_; }
  /// Honest block-sync messages sent (fetches + chain responses).
  [[nodiscard]] std::uint64_t sync_msgs() const { return base().sync_msgs_; }
  /// Honest availability acks sent (BatchAck copies).
  [[nodiscard]] std::uint64_t batch_acks() const { return base().batch_acks_; }
  /// Honest dissemination-layer bytes sent in [from, to) — attributable
  /// per regime window like msgs_between.
  [[nodiscard]] std::uint64_t dissem_bytes_between(TimePoint from, TimePoint to) const;

  // -- derived measures ----------------------------------------------------
  /// Decisions at or after `from` (index into decisions()).
  [[nodiscard]] std::size_t first_decision_index_after(TimePoint from) const;

  /// Time from `gst` to the first decision after it (worst-case latency
  /// sample); nullopt if none.
  [[nodiscard]] std::optional<Duration> latency_to_first_decision(TimePoint gst) const;

  /// Max time between consecutive decisions, over decisions after `from`,
  /// skipping the first `warmup` gaps (eventual worst-case latency
  /// sample). nullopt if fewer than warmup+2 decisions.
  [[nodiscard]] std::optional<Duration> max_decision_gap(TimePoint from,
                                                         std::size_t warmup = 0) const;

  /// Max honest messages between consecutive decisions after `from`,
  /// skipping `warmup` gaps (communication-per-decision sample).
  [[nodiscard]] std::optional<std::uint64_t> max_msg_gap(TimePoint from,
                                                         std::size_t warmup = 0) const;

  /// Honest messages sent from `gst` until the first decision after it
  /// (worst-case communication sample).
  [[nodiscard]] std::optional<std::uint64_t> msgs_to_first_decision(TimePoint gst) const;

  /// Honest messages sent in [from, to).
  [[nodiscard]] std::uint64_t msgs_between(TimePoint from, TimePoint to) const;

  /// Checkpoints behind msgs_between / dissem_bytes_between: at most one
  /// per distinct send instant, however many sends share it.
  [[nodiscard]] std::size_t send_checkpoints() const { return base().send_log_.size(); }
  [[nodiscard]] std::size_t dissem_send_checkpoints() const {
    return base().dissem_send_log_.size();
  }

  // -- regime windows ------------------------------------------------------
  // The fault-schedule executor marks each scripted event here, so a
  // run's measures can be attributed to the network regime they occurred
  // under (before / during / after a partition, per delay era, ...).

  /// Records a regime boundary (a fault-schedule event) at `at`.
  void mark_regime(TimePoint at, std::string label);
  /// All boundaries in time order: (instant, event description).
  [[nodiscard]] const std::vector<std::pair<TimePoint, std::string>>& regime_marks() const {
    return base().regime_marks_;
  }

  /// Decisions with `from <= at < to`.
  [[nodiscard]] std::uint64_t decisions_between(TimePoint from, TimePoint to) const;
  /// Max gap between consecutive decisions that both fall in [from, to);
  /// nullopt with fewer than two decisions in the window.
  [[nodiscard]] std::optional<Duration> max_decision_gap_between(TimePoint from,
                                                                 TimePoint to) const;

  // -- client workload -----------------------------------------------------
  // End-to-end request accounting (src/workload/), fed by the Cluster on
  // the sim transport so request throughput and client latency attribute
  // to the same regime windows as the protocol measures. The TCP
  // transport aggregates per node instead (Cluster::workload_report).

  /// A tagged client request committed at `at`, `latency` after submit.
  void record_request_committed(TimePoint at, Duration latency);
  /// A proposer drained its mempool at depth `depth` (requests waiting).
  void record_queue_depth(TimePoint at, ProcessId node, std::size_t depth);

  [[nodiscard]] std::uint64_t requests_committed() const {
    return base().request_log_.size();
  }
  /// Committed requests with `from <= at < to`.
  [[nodiscard]] std::uint64_t requests_between(TimePoint from, TimePoint to) const;
  /// Nearest-rank submit -> commit latency percentile, p in (0, 1];
  /// nullopt when no request committed (in the window).
  [[nodiscard]] std::optional<Duration> request_latency_percentile(double p) const;
  [[nodiscard]] std::optional<Duration> request_latency_percentile_between(double p,
                                                                           TimePoint from,
                                                                           TimePoint to) const;
  [[nodiscard]] std::size_t max_queue_depth() const { return base().max_queue_depth_; }
  /// (instant, proposer, pending depth) per batch drain, in time order.
  struct QueueDepthSample {
    TimePoint at;
    ProcessId node = kNoProcess;
    std::size_t depth = 0;
  };
  [[nodiscard]] const std::vector<QueueDepthSample>& queue_depth_log() const {
    return base().queue_depth_log_;
  }

  // -- data dissemination --------------------------------------------------
  // Batch-availability accounting (src/dissem/), fed by the Cluster on
  // the sim transport: proof-of-availability latency at each origin plus
  // the deepest certified-but-unordered backlog.

  /// A batch gathered its availability cert at `at`, `latency` after its
  /// first push.
  void record_batch_certified(TimePoint at, Duration latency);
  /// One node's certified-but-unordered reference depth sample.
  void record_certified_depth(TimePoint at, ProcessId node, std::size_t depth);

  [[nodiscard]] std::uint64_t batches_certified() const { return base().cert_log_.size(); }
  /// Certified batches with `from <= at < to`.
  [[nodiscard]] std::uint64_t batches_certified_between(TimePoint from, TimePoint to) const;
  /// Nearest-rank push -> cert latency percentile, p in (0, 1]; nullopt
  /// when no batch certified (in the window).
  [[nodiscard]] std::optional<Duration> batch_cert_latency_percentile(double p) const;
  [[nodiscard]] std::optional<Duration> batch_cert_latency_percentile_between(
      double p, TimePoint from, TimePoint to) const;
  /// The deepest certified-but-unordered queue any node reported.
  [[nodiscard]] std::size_t max_certified_depth() const { return base().max_certified_depth_; }

 private:
  /// The shared accounting body of on_send / on_broadcast: charges
  /// `copies` identical sends of `msg` at `at`.
  void charge_sends(TimePoint at, const Message& msg, std::uint64_t copies);
  /// charge_sends with the message's properties already extracted — the
  /// form threaded replay uses (events store properties, not Message&).
  void charge_sends_raw(TimePoint at, std::uint32_t type_id, MsgClass msg_class,
                        std::uint64_t wire, std::uint64_t copies);

  /// One captured recording call (threaded mode); replayed in (at, seq)
  /// order to rebuild the exact single-threaded collector state.
  struct Event {
    enum class Kind : std::uint8_t {
      kSend,
      kQcFormed,
      kRegime,
      kRequestCommitted,
      kQueueDepth,
      kBatchCertified,
      kCertifiedDepth,
    };
    Kind kind = Kind::kSend;
    std::uint64_t seq = 0;
    TimePoint at;
    std::uint32_t type_id = 0;             // kSend
    MsgClass msg_class = MsgClass::kConsensus;
    std::uint64_t wire = 0;                // kSend: bytes per copy
    std::uint64_t copies = 0;              // kSend
    View view = -1;                        // kQcFormed
    ProcessId node = kNoProcess;           // kQcFormed leader / depth node
    std::size_t depth = 0;                 // k*Depth
    Duration latency = Duration::zero();   // kRequestCommitted / kBatchCertified
    std::string label;                     // kRegime
  };

  /// Appends one event to the calling thread's shard with a fresh global
  /// sequence number.
  void capture(Event event);
  /// The collector queries actually read: *this when single-threaded,
  /// else the replayed merge (rebuilt only when new events arrived).
  [[nodiscard]] const MetricsCollector& base() const;

  std::uint32_t n_;
  std::vector<bool> byzantine_;

  // -- threaded capture --------------------------------------------------
  bool threaded_ = false;
  std::atomic<bool> recording_live_{false};
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::vector<Event> events;
  };
  mutable std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex merge_mu_;
  mutable std::unique_ptr<MetricsCollector> merged_;
  mutable std::uint64_t merged_upto_ = 0;
  std::uint64_t total_msgs_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t pacemaker_msgs_ = 0;
  std::uint64_t consensus_msgs_ = 0;
  std::uint64_t dissem_msgs_ = 0;
  std::uint64_t dissem_bytes_ = 0;
  std::uint64_t sync_msgs_ = 0;
  std::uint64_t batch_acks_ = 0;
  std::map<std::uint32_t, std::uint64_t> by_type_;
  std::vector<Decision> decisions_;
  /// (time, cumulative count) checkpoints for msgs_between; one entry per
  /// distinct send instant (see checkpoint() in metrics.cpp).
  std::vector<std::pair<TimePoint, std::uint64_t>> send_log_;
  std::vector<std::pair<TimePoint, std::string>> regime_marks_;
  /// (commit instant, submit -> commit latency) per committed request.
  std::vector<std::pair<TimePoint, Duration>> request_log_;
  std::vector<QueueDepthSample> queue_depth_log_;
  std::size_t max_queue_depth_ = 0;
  /// (time, cumulative dissemination bytes) checkpoints, one per distinct
  /// charge instant.
  std::vector<std::pair<TimePoint, std::uint64_t>> dissem_send_log_;
  /// (cert instant, push -> cert latency) per certified batch.
  std::vector<std::pair<TimePoint, Duration>> cert_log_;
  std::size_t max_certified_depth_ = 0;
};

}  // namespace lumiere::runtime
