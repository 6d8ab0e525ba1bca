// The client-command pool feeding block payloads.
//
// Upgraded for the workload engine (src/workload/): the pool is bounded
// (bytes and count), admission-controlled, duplicate-suppressing, and —
// via view-keyed leases — loss-free for admitted commands. A leased
// command moves through one state machine:
//
//   pending     --attach(v)------------------------------> sent@v
//   sent@v      --proposal v left it out------------------> relayed@v+1
//   sent@v, relayed@v --seen in a proposal at w-----------> proposed@w
//   any state   --committed (in any leader's block)-------> acked
//   sent@v, relayed@v --view v passed, no proposal had it-> pending (front)
//   proposed@w  --a commit at >= w left it out------------> pending (front)
//
// attach(v) drains the batch this node forwards on its NewView(v) to
// lead(v). A proposal for v that leaves out a sent@v command means
// lead(v) could not take it (it arrived after the proposal, or the block
// was full), and lead(v) relays it to lead(v+1); the origin waits that
// one view before re-attaching, so the two copies do not race. A relay
// is never relayed again: a relayed@v+1 command that proposal v+1 leaves
// out is re-attached at the origin's next NewView. A commit of ANY leader's block acks the
// commands it carries, pending ones included (a re-attached copy may be
// queued when the first one commits), so "admitted" means "will commit
// (exactly once) as long as honest leaders keep proposing". Tagged
// requests (consensus/request_tag.h) match by tag, as the chain's
// exclusion rule does: a forged copy committed under our tag ends ours,
// which the chain would refuse from then on.
//
// next_batch(v) (a drain leased as proposed@v, for a node's own
// proposal) is no longer on any node's data path: it survives only for
// the bench_e2e mempool micro and the tests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "crypto/sha256.h"
#include "ser/serializer.h"

namespace lumiere::consensus {

/// Outcome of Mempool::add — the admission/backpressure signal clients
/// react to.
enum class Admission : std::uint8_t {
  kAccepted,
  kFull,       ///< pending capacity (bytes or count) exhausted; retry after
               ///< the pool signals space (see set_space_available)
  kOversized,  ///< the command can never fit in one batch — a permanent
               ///< rejection, not a backpressure condition
  kDuplicate,  ///< a byte-identical command is already pending or in flight
};

[[nodiscard]] const char* to_string(Admission admission);

/// Capacity and batching knobs. The defaults keep the pre-workload
/// behavior (4 KiB batches, effectively unbounded pool).
struct MempoolLimits {
  static constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

  /// Per-batch byte budget (command bytes + 4-byte length prefix each).
  std::size_t max_batch_bytes = 4096;
  /// Per-batch command-count budget.
  std::size_t max_batch_count = kUnlimited;
  /// Pending-queue byte bound; add() returns kFull beyond it. Leased
  /// (in-flight) commands do not count — they are bounded by the batch
  /// size times the commit pipeline depth.
  std::size_t max_pending_bytes = kUnlimited;
  /// Pending-queue count bound.
  std::size_t max_pending_count = kUnlimited;
  /// Reject byte-identical commands while the original is pending or in
  /// flight (a client retry must not commit twice). Off by default so
  /// legacy callers keep add-anything semantics (and pay no hashing at
  /// admission); the workload engine opts in (workload/spec.h).
  bool suppress_duplicates = false;
};

/// Walks a payload built by the batch drains (u32 length-prefixed
/// commands), calling fn(std::span<const std::uint8_t>) on each command
/// in order without copying it. Stops at the first malformed entry.
template <typename Fn>
void for_each_command(std::span<const std::uint8_t> payload, Fn&& fn) {
  ser::Reader r(payload);
  std::span<const std::uint8_t> command;
  while (!r.exhausted() && r.bytes_view(command)) fn(command);
}

/// FIFO command pool. Commands are opaque byte strings; `next_batch`
/// drains up to the batch limits into one payload (length-prefixed
/// concatenation; for_each_command walks it back).
class Mempool {
 public:
  explicit Mempool(std::size_t max_batch_bytes = 4096)
      : Mempool(MempoolLimits{.max_batch_bytes = max_batch_bytes}) {}
  explicit Mempool(MempoolLimits limits);

  /// Admits a command, or explains why not. An accepted command is owned
  /// by the pool until it is drained (legacy next_batch) or committed
  /// (a leased drain, then on_commit).
  Admission add(std::vector<std::uint8_t> command);
  Admission add(std::string_view command);

  /// Legacy drain: builds the next payload, removing the included
  /// commands for good (no lease — callers that never observe commits).
  [[nodiscard]] std::vector<std::uint8_t> next_batch();

  /// Leased drain for a proposal at `view` (bench micro and tests only;
  /// nodes forward through attach): the included commands are
  /// proposed@view until a commit acks them or proves the proposal
  /// abandoned (see on_commit).
  [[nodiscard]] std::vector<std::uint8_t> next_batch(View view);

  /// Forwarding drain for this node's NewView(view): first requeues every
  /// sent@u or relayed@u lease (u < view) whose view passed without a
  /// proposal carrying it, then drains the next batch into sent@view.
  [[nodiscard]] std::vector<std::uint8_t> attach(View view);

  /// Observes a proposal at `view` (any leader's): leased commands inside
  /// it become proposed@view, so they wait for a commit instead of being
  /// re-attached; sent@view commands it left out become relayed@view+1.
  void on_proposed(View view, std::span<const std::uint8_t> payload);

  /// Observes a committed payload at `view` (every replica commit, any
  /// leader). Commands inside it are acked, whichever lease holds them or
  /// if they are pending; proposed@w leases with w <= `view` still
  /// holding unacked commands are requeued — the chain commits views in
  /// order, so a proposal below an already committed view can never
  /// commit.
  void on_commit(View view, std::span<const std::uint8_t> payload);

  /// Token-keyed lease for the dissemination layer: drains the next batch
  /// into `payload` and returns an opaque token (0 when nothing pending).
  /// Certification and ordering of disseminated batches are not
  /// view-monotone, so the view-keyed requeue logic above cannot apply;
  /// a token lease stays out until it is explicitly acked (the batch was
  /// ordered and delivered) or requeued.
  [[nodiscard]] std::uint64_t lease_batch(std::vector<std::uint8_t>& payload);
  /// Acks a token lease: its commands committed exactly once.
  void ack_batch(std::uint64_t token);
  /// Returns a token lease's commands to the queue front (admitted
  /// commands bypass the capacity check).
  void requeue_batch(std::uint64_t token);

  /// Invoked whenever capacity frees up after an add() was rejected with
  /// kFull — the backpressure release edge closed-loop clients wait on.
  void set_space_available(std::function<void()> fn) { space_available_ = std::move(fn); }

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return pending_bytes_; }
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_count_; }
  [[nodiscard]] bool has_capacity(std::size_t command_bytes) const noexcept;
  [[nodiscard]] const MempoolLimits& limits() const noexcept { return limits_; }

  // Lifetime counters (admission accounting for the workload report).
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected_full() const noexcept { return rejected_full_; }
  [[nodiscard]] std::uint64_t rejected_oversized() const noexcept { return rejected_oversized_; }
  [[nodiscard]] std::uint64_t rejected_duplicate() const noexcept { return rejected_duplicate_; }
  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }
  [[nodiscard]] std::uint64_t requeued() const noexcept { return requeued_; }

 private:
  enum class Lease : std::uint8_t { kSent, kRelayed, kProposed };
  /// An admitted command. Its digest is taken once, at admission, and
  /// only with duplicate suppression on (it keys live_); leasing,
  /// requeueing and acking carry it along instead of re-hashing.
  struct Entry {
    std::vector<std::uint8_t> command;
    crypto::Digest digest;
    // While view-leased: the lease, state@view.
    Lease state = Lease::kProposed;
    View view = 0;
  };

  [[nodiscard]] static std::size_t batch_cost(const std::vector<std::uint8_t>& cmd) noexcept {
    return cmd.size() + 4;  // u32 length prefix
  }
  /// The one drain loop every leased and unleased drain shares: moves up
  /// to the batch limits (bytes and count) of commands off the queue
  /// front, handing each to sink(Entry&&), and returns their payload.
  template <typename Sink>
  [[nodiscard]] std::vector<std::uint8_t> drain_batch(Sink&& sink);
  /// Returns `back` (oldest first) to the queue front; requeued commands
  /// bypass the capacity check (they were admitted).
  void requeue(std::vector<Entry> back);
  /// Drops a command's duplicate-suppression hold (committed or drained
  /// for good).
  void release(const Entry& entry);
  /// drain_batch into view leases, entering state@view.
  [[nodiscard]] std::vector<std::uint8_t> lease_for_view(View view, Lease state);
  /// Removes the entries (of leases_ or queue_) for which `drop` (which
  /// may move from or update them) returns true, keeping the rest in order.
  template <typename Entries, typename Drop>
  static void drop_entries(Entries& entries, Drop&& drop);
  /// Requeues the leased commands below `view` (at or below with
  /// `inclusive`) whose state satisfies `expired`.
  template <typename Pred>
  void requeue_leases(View view, bool inclusive, Pred&& expired);
  /// Hands every entry of `entries` (leases_ or queue_) matching a
  /// command of `payload` (each payload command matches at most one
  /// entry; tagged requests match by tag) to `take`, which may update it
  /// and returns true to drop it.
  template <typename Entries, typename Take>
  void match_commands(std::span<const std::uint8_t> payload, Entries& entries, Take&& take);
  void maybe_signal_space();

  MempoolLimits limits_;
  std::deque<Entry> queue_;
  std::size_t pending_bytes_ = 0;
  /// Digests of every live (pending or in-flight) command, for duplicate
  /// suppression. std::set for deterministic behavior everywhere.
  std::set<crypto::Digest> live_;
  /// View leases (sent@, relayed@ and proposed@view commands), in lease
  /// order, so a requeue keeps the oldest first.
  std::vector<Entry> leases_;
  /// Token-keyed leases (dissemination path); tokens are never reused.
  std::map<std::uint64_t, std::vector<Entry>> token_leases_;
  std::uint64_t next_token_ = 0;
  std::size_t in_flight_count_ = 0;
  std::function<void()> space_available_;
  bool starving_ = false;  ///< an add() bounced with kFull since the last signal

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_oversized_ = 0;
  std::uint64_t rejected_duplicate_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t requeued_ = 0;
};

}  // namespace lumiere::consensus
