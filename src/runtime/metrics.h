// Communication and latency accounting, matching Section 2's measures.
//
// The paper counts messages *sent by correct processors* and defines
// decision points t*_T as moments when some honest lead(v) produces a QC
// for view v. This collector:
//   * counts every honest-to-other send, bucketed by message type and by
//     MsgClass. The transport's send tap (runtime::SendTap, installed on
//     sim::Network and on each TcpTransportAdapter) charges it once per
//     copy, after the sender's down filter and before any link cut;
//     self-delivery is not traffic and is never charged;
//   * logs decisions (honest-leader QC formations) with the cumulative
//     message count at that instant, so any inter-decision window's cost
//     is a subtraction;
//   * derives the four Table 1 measures over a run.
// A window's send count is two reads of total_honest_msgs(), one at each
// edge (Cluster::run_until(edge - 1us) runs every event before the edge).
//
// Recording: every record_* call filters, then builds one Event. A plain
// collector applies it at once; a threaded one captures it and replays
// the captured stream through the same apply(), so both modes derive
// every measure with one piece of code.
//
// Threading and lifetime: on the sim transport everything runs on one
// thread and the collector applies each event as it is recorded. The TCP
// Cluster calls enable_threaded(): record_* then appends the event to a
// sharded (mutex + vector) log stamped with a global sequence number, and
// the first query after new events replays them all, sorted by (time,
// seq), into a merged record. Record from any driver thread; query only
// between run_for slices (asserted). References a query returns point
// into that merged record and dangle after the next slice: re-fetch them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/time.h"
#include "common/types.h"
#include "ser/message.h"

namespace lumiere::runtime {

class MetricsCollector final {
 public:
  MetricsCollector(std::uint32_t n, std::vector<bool> byzantine)
      : n_(n), byzantine_(std::move(byzantine)) {
    LUMIERE_ASSERT(byzantine_.size() == n_);
  }

  /// Switches to thread-safe capture (sharded event logs, replayed on
  /// read). Call once, before any recording; the TCP Cluster does this at
  /// construction.
  void enable_threaded() { threaded_ = true; }

  /// Driver threads are live from here to end_recording_window():
  /// recording is safe, querying is not (every query goes through base(),
  /// which asserts the window is closed).
  void begin_recording_window() noexcept {
    recording_live_.store(true, std::memory_order_relaxed);
  }
  void end_recording_window() noexcept {
    recording_live_.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording_window_open() const noexcept {
    return recording_live_.load(std::memory_order_relaxed);
  }

  // -- sends -------------------------------------------------------------
  /// One copy of `msg`, `wire` bytes on the wire, that `from` sent to
  /// another process at `at`. Charged only when `from` is honest.
  void record_send(TimePoint at, ProcessId from, const Message& msg, std::uint64_t wire);

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

  [[nodiscard]] const std::vector<Decision>& decisions() const { return base().decisions; }
  [[nodiscard]] std::uint64_t total_honest_msgs() const { return base().total_msgs; }
  [[nodiscard]] std::uint64_t total_honest_bytes() const { return base().total_bytes; }
  /// Honest copies of one message type sent.
  [[nodiscard]] std::uint64_t count_for_type(std::uint32_t type_id) const {
    return type_totals(type_id).msgs;
  }
  /// Honest bytes of one message type sent (copies x wire size).
  [[nodiscard]] std::uint64_t bytes_for_type(std::uint32_t type_id) const {
    return type_totals(type_id).bytes;
  }
  [[nodiscard]] std::uint64_t pacemaker_msgs() const { return base().pacemaker_msgs; }
  [[nodiscard]] std::uint64_t consensus_msgs() const { return base().consensus_msgs; }
  [[nodiscard]] std::uint64_t dissem_msgs() const { return base().dissem_msgs; }
  [[nodiscard]] std::uint64_t dissem_bytes() const { return base().dissem_bytes; }
  /// Honest block-sync messages sent (fetches + chain responses).
  [[nodiscard]] std::uint64_t sync_msgs() const { return base().sync_msgs; }

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

  /// Decisions with `from <= at < to`.
  [[nodiscard]] std::uint64_t decisions_between(TimePoint from, TimePoint to) const;
  /// Max gap between consecutive decisions that both fall in [from, to);
  /// nullopt with fewer than two decisions in the window.
  [[nodiscard]] std::optional<Duration> max_decision_gap_between(TimePoint from,
                                                                 TimePoint to) const;

  // -- client workload -----------------------------------------------------
  // Committed requests and their latencies live in the workload engines
  // (Cluster::workload_report(): committed_between, latency_percentile
  // [_between]); the collector keeps only the mempool depth log.

  /// A proposer drained its mempool at depth `depth` (requests waiting).
  void record_queue_depth(TimePoint at, ProcessId node, std::size_t depth);

  /// (instant, proposer, pending depth) per batch drain, in time order.
  struct QueueDepthSample {
    TimePoint at;
    ProcessId node = kNoProcess;
    std::size_t depth = 0;
  };
  [[nodiscard]] const std::vector<QueueDepthSample>& queue_depth_log() const {
    return base().queue_depth_log;
  }

  // -- data dissemination --------------------------------------------------
  // Batch-availability accounting (src/dissem/): proof-of-availability
  // latency at each origin. A node's certified-but-unordered backlog is
  // its Disseminator::certified_depth().

  /// A batch gathered its availability cert at `at`, `latency` after its
  /// first push.
  void record_batch_certified(TimePoint at, Duration latency);

  [[nodiscard]] std::uint64_t batches_certified() const { return base().cert_log.size(); }
  /// Nearest-rank push -> cert latency percentile, p in (0, 1]; nullopt
  /// when no batch certified.
  [[nodiscard]] std::optional<Duration> batch_cert_latency_percentile(double p) const;

 private:
  /// One recording call, after its honest filter.
  struct Event {
    enum class Kind : std::uint8_t { kSend, kQcFormed, kQueueDepth, kBatchCertified };
    Kind kind = Kind::kSend;
    std::uint64_t seq = 0;  ///< capture order (threaded mode only)
    TimePoint at;
    std::uint32_t type_id = 0;             // kSend
    MsgClass msg_class = MsgClass::kConsensus;
    std::uint64_t wire = 0;                // kSend
    View view = -1;                        // kQcFormed
    ProcessId node = kNoProcess;           // kQcFormed leader / kQueueDepth node
    std::size_t depth = 0;                 // kQueueDepth
    Duration latency = Duration::zero();   // kBatchCertified
  };

  struct TypeTotals {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// Everything the queries read; apply() is the only code that changes it.
  struct Record {
    std::uint64_t total_msgs = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t pacemaker_msgs = 0;
    std::uint64_t consensus_msgs = 0;
    std::uint64_t dissem_msgs = 0;
    std::uint64_t dissem_bytes = 0;
    std::uint64_t sync_msgs = 0;
    std::map<std::uint32_t, TypeTotals> by_type;
    std::vector<Decision> decisions;
    std::vector<QueueDepthSample> queue_depth_log;
    std::vector<Duration> cert_log;  ///< push -> cert latency per certified batch

    void apply(const Event& e);
  };

  /// Applies `event` at once, or (threaded) appends it to the calling
  /// thread's shard with a fresh global sequence number.
  void record(Event event);
  /// The record queries read: record_ when single-threaded, else the
  /// replay of every captured event (rebuilt only when new ones arrived).
  [[nodiscard]] const Record& base() const;
  [[nodiscard]] TypeTotals type_totals(std::uint32_t type_id) const;

  std::uint32_t n_;
  std::vector<bool> byzantine_;
  Record record_;

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
  mutable std::optional<Record> merged_;
  mutable std::uint64_t merged_upto_ = 0;
};

}  // namespace lumiere::runtime
