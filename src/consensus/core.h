// The abstract "underlying protocol" of Section 2.
//
// A ConsensusCore is the view-scoped consensus logic the pacemaker
// synchronizes. The contract mirrors the paper's assumptions:
//
//  (diamond-1) There is a known x >= 2 such that, post-GST, if lead(v) is
//      honest and 2f+1 honest processors stay in view v, all honest
//      processors receive a QC for v within x * delta.
//  (diamond-2) No view produces a QC unless 2f+1 processors act as if
//      honest and in the view over a non-empty interval.
//
// Each implementation documents its x. The pacemaker is consulted through
// `PacemakerHooks` before a leader finalizes a QC (Lumiere's
// Gamma/2 - 2*Delta production deadline, Section 4).
#pragma once

#include <functional>
#include <memory>

#include "common/params.h"
#include "common/time.h"
#include "common/types.h"
#include "consensus/quorum_cert.h"
#include "ser/message.h"

namespace lumiere::consensus {

class Block;

/// Callbacks a ConsensusCore uses to reach the outside world. Provided by
/// the runtime Node; plain std::function so tests can wire cores directly.
struct CoreCallbacks {
  std::function<void(ProcessId to, MessagePtr msg)> send;
  std::function<void(MessagePtr msg)> broadcast;
  /// Fired when *this node*, as leader, forms a QC (before broadcasting).
  std::function<void(const QuorumCert& qc)> qc_formed;
  /// Fired when any valid QC is observed (own or received); the pacemaker
  /// consumes these to bump clocks / advance views.
  std::function<void(const QuorumCert& qc)> qc_seen;
  /// SMR commit (chained HotStuff / HotStuff-2). Passes the stored block
  /// itself, so the ledger can keep a reference instead of a copy.
  std::function<void(const std::shared_ptr<const Block>& block)> decided;
  /// Vote gate over a proposal's payload. Null means every payload is
  /// acceptable (the legacy inline-batch mode); with the dissemination
  /// layer active it verifies that the payload is a well-formed list of
  /// certified batch references, so a Byzantine leader proposing bogus
  /// references collects no honest votes.
  std::function<bool(const Block& block)> payload_ok;
  /// Runs `fn` after `delay` of real (simulated) time. Cores that need
  /// timers (HotStuff-2's Delta-wait before a non-responsive proposal)
  /// use this; may be null for cores that never schedule.
  std::function<void(Duration delay, std::function<void()> fn)> schedule;
  /// Block sync (src/sync/): the commit walk hit an ancestor missing from
  /// the local store that no peer will re-send on its own — an
  /// equivocation victim's dropped winner, or a restarted replica's
  /// pre-crash history. The sync subsystem fetches the block by hash from
  /// peers and feeds it back via ConsensusCore::on_synced_block. Every
  /// runtime Node wires it; null only in tests that drive a core
  /// directly, where the walk then waits for the block to arrive.
  std::function<void(const crypto::Digest& hash)> fetch_missing;
};

/// The pacemaker-side hooks consulted by cores.
struct PacemakerHooks {
  /// Leader schedule: lead(v).
  std::function<ProcessId(View)> leader_of;
  /// May this node, as lead(v), produce a QC for v right now? Lumiere
  /// enforces its production deadline here; other pacemakers say yes.
  std::function<bool(View v)> may_form_qc;
  /// May this node, as lead(v), broadcast its proposal for v right now?
  /// Lumiere holds initial-view proposals until the leader has sent the
  /// VC for v, which anchors the QC-production deadline (Section 4); the
  /// pacemaker later calls ConsensusCore::on_propose_allowed(v).
  std::function<bool(View v)> may_propose;
};

class ConsensusCore {
 public:
  virtual ~ConsensusCore() = default;

  /// The view-completion constant x of (diamond-1) for this core.
  [[nodiscard]] virtual std::uint32_t x() const = 0;

  /// The pacemaker moved this node into view v (monotonically increasing).
  virtual void on_enter_view(View v) = 0;

  /// A message arrived from `from` (possibly Byzantine — validate).
  virtual void on_message(ProcessId from, const MessagePtr& msg) = 0;

  /// The pacemaker lifted a may_propose() gate for view v (see
  /// PacemakerHooks::may_propose). Default: retry proposing.
  virtual void on_propose_allowed(View v) = 0;

  /// Highest QC this node knows (for proposals and new-view reporting).
  [[nodiscard]] virtual const QuorumCert& high_qc() const = 0;

  /// Block sync delivered a verified block (content-addressed and
  /// parent-linked to a hash this core reported via
  /// CoreCallbacks::fetch_missing). Committing cores store it — the
  /// response's allocation, via shared_from_this — and resume the stalled
  /// commit walk; the default no-op suits cores that never commit
  /// (simple-view).
  virtual void on_synced_block(const Block& block) { (void)block; }

  /// Serve a block-sync fetch from this core's store (nullptr = unknown).
  [[nodiscard]] virtual std::shared_ptr<const Block> block_for_sync(
      const crypto::Digest& hash) const {
    (void)hash;
    return nullptr;
  }
};

}  // namespace lumiere::consensus
