// The workload engine: client drivers feeding one node's bounded mempool,
// with per-request submit -> commit latency accounting.
//
//    ClientDriver --add()--> Mempool --attach(v)--> NewView(v) --> lead(v)
//         ^                  ^     ^                                  |
//         | backpressure     |     | on_proposed                     v
//         +--- release ------+     +----- proposal at w (any leader) -+
//                            |                                        |
//                            +<-- on_commit (ack/requeue) <-- committed block
//
// Every view the node forwards the requests its clients got admitted
// to that view's leader on its NewView (consensus/chained_core.h), so a
// request rides the next proposer's block instead of waiting for this
// node's own leader turn. A workload needs a committing (chained) core.
//
// One NodeWorkload per node, living entirely on that node's simulator
// (the shared deterministic one, or the node's private wall-clock-paced
// one on the TCP transport) — submissions, batch drains and commit
// observations all happen on one logical thread, so the engine needs no
// locks and behaves identically on both transports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/types.h"
#include "consensus/core.h"
#include "consensus/mempool.h"
#include "crypto/sha256.h"
#include "sim/simulator.h"
#include "workload/request.h"
#include "workload/spec.h"

namespace lumiere::workload {

class NodeWorkload;

/// One client: an arrival process generating tagged requests against its
/// node's mempool. Owned by NodeWorkload; not constructed directly.
class ClientDriver {
 public:
  ClientDriver(NodeWorkload* owner, std::uint32_t client, Rng rng);

  /// Schedules this client's first activity at spec.start.
  void start();
  /// A request of this client committed (closed loop refills its window).
  void on_own_commit();
  /// The mempool freed capacity after rejecting us (closed loop retries).
  void on_space_available();
  /// A block committed this client's tag at `seq` with no submission of
  /// it outstanding. A seq not yet submitted is then spent (only a
  /// forged request can commit it early): the client skips it.
  void note_committed_ahead(std::uint64_t seq);

  [[nodiscard]] std::uint32_t client() const noexcept { return client_; }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

 private:
  enum class Submit {
    kAdmitted,    ///< request accepted; it will eventually commit
    kRetryLater,  ///< pool full and not shedding — same seq retried on release
    kSkipped,     ///< consumed the seq without admitting (shed / oversized /
                  ///< duplicate) — no commit will ever arrive for it
  };

  void open_loop_arrival();
  void closed_loop_pump();
  /// Builds and submits request `next_seq_`. Consumes the sequence number
  /// on admission, and on a request that can never be admitted; a
  /// request the full pool turns away (shed or retried) keeps it.
  Submit submit_one(bool shed_on_full);
  [[nodiscard]] Duration open_loop_interval(TimePoint now);

  NodeWorkload* owner_;
  std::uint32_t client_;
  std::uint64_t next_seq_ = 0;
  std::set<std::uint64_t> taken_;  ///< seqs >= next_seq_ already committed
  std::uint32_t want_ = 0;  ///< closed loop: window slots awaiting a submission
  Rng rng_;
};

/// Client-side accounting for one node (admission counters live on the
/// node's Mempool; this adds the per-request latency view).
struct NodeWorkloadStats {
  std::uint64_t submitted = 0;       ///< requests generated (attempts)
  std::uint64_t shed = 0;            ///< open-loop requests dropped on kFull
  std::uint64_t committed = 0;       ///< own requests observed committing
  std::uint64_t commit_misses = 0;   ///< own client id committed with no
                                     ///< outstanding record (duplicate commit)
  /// Largest pending depth just before a drain: a dissem lease, or a
  /// forwarding attach that carries requests.
  std::size_t max_queue_depth = 0;
  /// (commit instant, submit -> commit latency), in commit order.
  std::vector<std::pair<TimePoint, Duration>> latencies;
};

class NodeWorkload {
 public:
  /// Events forwarded to harness-level collectors (the sim transport
  /// feeds runtime::MetricsCollector through these; TCP leaves them null
  /// and aggregates per node after the run).
  struct Hooks {
    std::function<void(TimePoint at, Duration latency)> on_request_committed;
    std::function<void(TimePoint at, std::size_t depth)> on_queue_depth;
  };

  /// `incarnation` numbers the node's process lifetimes. A restarted
  /// process has lost its clients' seqs, so each incarnation gets its own
  /// client ids (workload/request.h): reusing the last one's would
  /// replay tags the chain already committed, and those it refuses.
  NodeWorkload(sim::Simulator* sim, ProcessId node, WorkloadSpec spec, std::uint64_t seed,
               Hooks hooks = {}, std::uint32_t incarnation = 0);

  NodeWorkload(const NodeWorkload&) = delete;
  NodeWorkload& operator=(const NodeWorkload&) = delete;

  /// Schedules every client's first activity. Call exactly once, before
  /// the run starts.
  void start();

  /// The node's request-forwarding hooks (inline-batch data path): the
  /// mempool's attach/on_proposed, sampling the queue depth ahead of
  /// every attach that carries requests.
  [[nodiscard]] consensus::RequestForwarding forwarding();

  /// This node committed a block: ack/requeue the mempool leases and
  /// close the latency loop for our own requests inside the payload.
  void on_commit(TimePoint at, View view, std::span<const std::uint8_t> payload);

  // ---- dissemination-layer wiring (runtime::Cluster, dissem on) -------
  // Under dissemination the mempool's consumer is the disseminator, not
  // the proposer: batches lease by token (certification/ordering is not
  // view-monotone), and committed payloads arrive via delivery instead of
  // this node's own commit observation.

  /// Leases the next mempool batch into `payload`, sampling the queue
  /// depth; returns the lease token (0 = nothing pending).
  [[nodiscard]] std::uint64_t lease_dissem_batch(std::vector<std::uint8_t>& payload);
  /// A leased batch was ordered and delivered: release its requests.
  void ack_dissem_batch(std::uint64_t token);
  /// A committed batch's bytes (ours or another origin's): close the
  /// latency loop for our own requests inside it.
  void on_dissem_delivery(TimePoint at, const std::vector<std::uint8_t>& payload);

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] ProcessId node() const noexcept { return node_; }
  [[nodiscard]] consensus::Mempool& mempool() noexcept { return mempool_; }
  [[nodiscard]] const consensus::Mempool& mempool() const noexcept { return mempool_; }
  [[nodiscard]] const NodeWorkloadStats& stats() const noexcept { return stats_; }
  /// Requests admitted but not yet committed (pending + in flight).
  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_.size(); }

  /// Rolling digest over every generated request, in generation order —
  /// two runs produced byte-identical request traces iff these agree.
  [[nodiscard]] crypto::Digest trace_digest() const;

 private:
  friend class ClientDriver;

  /// The driver of `client` if it is one of this incarnation's clients.
  [[nodiscard]] ClientDriver* driver_of(std::uint32_t client) const;
  void record_generated(const std::vector<std::uint8_t>& request);
  void record_admitted(std::uint32_t client, std::uint64_t seq, TimePoint at);
  /// The commit-side accounting shared by on_commit and
  /// on_dissem_delivery: latency close-out for own requests in `payload`.
  void account_commands(TimePoint at, std::span<const std::uint8_t> payload);
  /// Records the pending depth ahead of a drain.
  void sample_depth();
  /// `payload` if it carries a request of this node's clients, else an
  /// empty span: the mempool then skips matching its leases against the
  /// many blocks that hold only other origins' requests.
  [[nodiscard]] std::span<const std::uint8_t> own_commands_or_none(
      std::span<const std::uint8_t> payload) const;
  void note_starved();
  /// The mempool's space-available edge: schedules one deferred retry
  /// round across all drivers.
  void note_starved_release();

  sim::Simulator* sim_;
  ProcessId node_;
  WorkloadSpec spec_;
  Hooks hooks_;
  consensus::Mempool mempool_;
  std::uint32_t first_client_;  ///< drivers_[k] is client first_client_ + k
  std::vector<std::unique_ptr<ClientDriver>> drivers_;
  /// (client, seq) -> submission instant, for requests awaiting commit.
  std::map<std::pair<std::uint32_t, std::uint64_t>, TimePoint> outstanding_;
  NodeWorkloadStats stats_;
  crypto::Sha256 trace_hasher_;
  bool retry_scheduled_ = false;  ///< a backpressure-release retry event is queued
  bool started_ = false;
};

}  // namespace lumiere::workload
