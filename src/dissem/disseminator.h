// Per-node data-dissemination engine (Autobahn-style, arXiv 2401.10369).
//
// Runs beneath the consensus core and off its critical path:
//
//   * as an origin, leases batches from the local mempool on a timer,
//     broadcasts their bytes (BatchPush), and aggregates f+1 signed
//     availability acks into a BatchCert (proof of availability), which
//     it sends to the next proposer only (lead(v+1) at that moment; none
//     when that is itself, since its own queue holds the cert);
//   * as a replica, stores pushed batches, acks them, and queues every
//     verified cert it receives as orderable. Replicas that are not the
//     next proposer first see a cert inside the proposal that orders it,
//     where the vote gate verifies it;
//   * hands consensus fixed-size certified references: the proposal
//     payload becomes an encoded list of (batch_id, cert) entries, so
//     proposal wire size is independent of batch payload size;
//   * on commit, resolves references back to payload bytes, fetching
//     from cert signers (>= 1 of the f+1 is honest and stores the batch)
//     when this node never received the push;
//   * on a retry tick, re-pushes an own batch still short of f+1 acks to
//     the peers whose ack is missing, re-fetches unresolved references,
//     and re-announces own certs nobody ordered yet. Re-pushes and
//     re-announces back off per batch: first due retry_interval after
//     the push or certification, then the gap doubles up to a cap of
//     4 x retry_interval. All certs due on a tick leave in BatchCertMsg
//     lists of at most 64, addressed to the proposer next at that tick;
//     the proposer rotates, so successive re-announces reach different
//     leaders (the liveness net for a silent or cut-off first choice).
//
// Every batch this node has stored or ordered is one BatchLanes record
// (dissem/batch_lanes.h): its digest, its shared payload bytes (null
// until a push or fetch response brings them) and an `ordered` bit that
// makes delivery exactly-once. Records sit in per-origin lanes indexed
// by seq, in fixed chunks allocated on demand; an id that cannot take
// its lane slot (a restarted origin reusing a seq, a forged push, an
// out-of-range origin) lives in the table's overflow map instead. Only
// the in-flight state (own pending and unordered certs, the certified
// queue, unresolved references) is kept in ordered containers.
//
// Everything is driven by the deterministic simulator clock through the
// injected schedule/now callbacks; the engine itself holds no threads
// and no wall-clock state, so runs replay bit-for-bit from the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/params.h"
#include "common/time.h"
#include "common/types.h"
#include "consensus/quorum_cert.h"
#include "crypto/authenticator.h"
#include "dissem/batch.h"
#include "dissem/batch_lanes.h"
#include "dissem/messages.h"
#include "dissem/spec.h"
#include "ser/message.h"

namespace lumiere::dissem {

/// Wiring into the node (transport + clock) and the harness (mempool
/// lease/ack, committed-batch delivery, metrics). Metrics hooks may be
/// null; the rest must be set.
struct DisseminatorCallbacks {
  std::function<void(ProcessId, MessagePtr)> send;
  std::function<void(MessagePtr)> broadcast;
  std::function<void(Duration, std::function<void()>)> schedule;
  std::function<TimePoint()> now;
  /// The replica that proposes next (lead(v+1) for the current view v):
  /// the one destination of cert announces.
  std::function<ProcessId()> next_proposer;

  /// Leases the next mempool batch into `payload`; returns the lease
  /// token, 0 when nothing is pending.
  std::function<std::uint64_t(std::vector<std::uint8_t>&)> lease_batch;
  /// Acks a lease after its batch was ordered and delivered.
  std::function<void(std::uint64_t)> ack_batch;
  /// Delivers one committed batch's bytes (exactly once per BatchId on
  /// this node, in deterministic order).
  std::function<void(TimePoint, const std::vector<std::uint8_t>&)> deliver;

  std::function<void(TimePoint, Duration)> on_batch_certified;     ///< PoA latency at origin
  std::function<void(TimePoint, std::size_t)> on_certified_depth;  ///< certified-unordered depth
};

class Disseminator {
 public:
  Disseminator(const ProtocolParams& params, crypto::AuthView auth, crypto::Signer signer,
               DissemSpec spec, DisseminatorCallbacks cb);

  /// Starts the push/retry timers. Call when the node joins the protocol.
  void start();

  void on_message(ProcessId from, const MessagePtr& msg);

  // ---- consensus integration -----------------------------------------

  /// Drains up to max_refs_per_proposal certified references into an
  /// encoded refs payload for a proposal (empty when nothing certified).
  [[nodiscard]] std::vector<std::uint8_t> make_proposal_payload(View v);

  /// Vote gate: empty payloads and well-formed reference lists whose
  /// certs all verify are acceptable; anything else (raw bytes, bogus
  /// certs) must not attract this node's vote.
  [[nodiscard]] bool refs_payload_ok(std::span<const std::uint8_t> payload);

  /// Observes references carried by any received proposal: a reference
  /// already in flight under some proposal is withheld from this node's
  /// own next proposal (with a reinsert timer as the liveness net).
  void on_refs_proposed(std::span<const std::uint8_t> payload);

  /// Resolves a committed payload's references: delivers stored batches,
  /// fetches missing ones from cert signers, acks own mempool leases.
  void on_committed_payload(std::span<const std::uint8_t> payload);

  // ---- introspection (tests, oracles, benches) -----------------------

  /// The stored bytes for `id`, or nullptr if this node never got them.
  [[nodiscard]] const std::vector<std::uint8_t>* payload_of(const BatchId& id) const;
  /// Certified-but-unordered references currently queued.
  [[nodiscard]] std::size_t certified_depth() const noexcept { return queued_.size(); }
  /// Committed references still awaiting a fetched payload.
  [[nodiscard]] std::size_t unresolved_count() const noexcept { return unresolved_.size(); }

  [[nodiscard]] std::uint64_t batches_pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t batches_certified() const noexcept { return certified_; }
  [[nodiscard]] std::uint64_t batches_delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t fetches_served() const noexcept { return fetches_served_; }
  [[nodiscard]] std::uint64_t refs_reinserted() const noexcept { return reinserted_; }

 private:
  /// A per-batch retry schedule: due `gap` after the last attempt, the
  /// gap doubling after each one up to a cap.
  struct Backoff {
    TimePoint due;  ///< next retry
    Duration gap;   ///< the last gap waited; the next one doubles it

    /// True when a retry is due at `now`; it then schedules the next one.
    bool fire(TimePoint now, Duration cap);
  };

  /// One own batch awaiting its f+1 acks, with its re-push schedule.
  struct PendingCert {
    BatchId id;
    TimePoint pushed_at;
    crypto::QuorumAggregator agg;
    Backoff repush;
  };

  /// One own certified batch nobody ordered yet, with its re-announce
  /// schedule.
  struct OwnCert {
    BatchCert cert;
    Backoff reannounce;
  };

  void push_tick();
  void retry_tick();
  void handle_push(ProcessId from, const BatchPushMsg& msg);
  void handle_ack(const BatchAckMsg& msg);
  void handle_cert(const BatchCertMsg& msg);
  void handle_fetch(ProcessId from, const BatchFetchMsg& msg);
  void maybe_finalize(std::uint64_t seq);
  /// Sends `certs` to the next proposer, unless that is this node.
  void announce(BatchCertMsg::Certs certs);
  /// Queues a verified cert as orderable (no-op if ordered or queued).
  void accept_cert(const BatchCert& cert);
  /// Full cert verification with a fingerprint memo (every proposal
  /// re-carries its refs' certs; re-checking f+1 MACs each time would
  /// dominate the vote path).
  [[nodiscard]] bool verify_cert_cached(const BatchCert& cert);
  void schedule_reinsert(const BatchCert& cert);
  /// Delivers a newly ordered batch's bytes and acks its own lease.
  void deliver_one(const BatchId& id, const std::vector<std::uint8_t>& bytes);
  void send_fetches(const BatchCert& cert);
  void sample_depth();

  ProtocolParams params_;
  crypto::AuthView auth_;
  crypto::Signer signer_;
  DissemSpec spec_;
  DisseminatorCallbacks cb_;
  ProcessId self_;
  bool running_ = false;

  std::uint64_t seq_ = 0;                         ///< own batch sequence
  std::map<std::uint64_t, PendingCert> pending_;  ///< own, awaiting acks (by seq)
  std::map<std::uint64_t, std::uint64_t> tokens_; ///< own seq -> mempool lease token
  std::map<BatchId, OwnCert> own_certs_;          ///< own, certified, not yet ordered

  BatchLanes batches_;            ///< every batch stored or ordered on this node
  std::deque<BatchCert> queue_;   ///< certified references, FIFO (may hold stale copies)
  std::set<BatchId> queued_;      ///< source of truth for queue membership
  std::map<BatchId, BatchCert> unresolved_;  ///< committed, payload still missing
  /// Fingerprints of verified serialized certs (announces and every
  /// proposal ref re-carry a cert while it is in flight).
  consensus::FingerprintMemo verified_certs_{4096};
  std::vector<std::uint8_t> scratch_;                  ///< fingerprint encode buffer

  std::uint64_t pushed_ = 0;
  std::uint64_t certified_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t fetches_served_ = 0;
  std::uint64_t reinserted_ = 0;
};

}  // namespace lumiere::dissem
