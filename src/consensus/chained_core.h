// The chained SMR core: one block per view, votes to the leader, QC
// broadcast, commits on chains of QCs with consecutive views.
//
// Chained HotStuff (Yin et al., PODC 2019) and HotStuff-2 (Malkhi &
// Nayak, 2023 — reference [14] of the paper) are this one core under two
// ChainRules. They differ only in:
//
//   * chain depth: commit on a 3-chain (HotStuff) or a 2-chain
//     (HotStuff-2) with consecutive views, and lock one link shallower
//     (2-chain / 1-chain). Every link must be direct: the certified
//     block's parent is the block its justify certifies;
//   * vote rule: HotStuff's safeNode disjunction (extends the locked
//     block, or justify newer than the lock) vs HotStuff-2's structural
//     rule (extends exactly its justify's block, justify at least as new
//     as the lock);
//   * proposal gate: a HotStuff leader waits for 2f+1 NewView(high_qc)
//     messages. A HotStuff-2 leader proposes at once when it holds
//     QC(v-1) (responsive), and otherwise only after waiting Delta in the
//     view (fallback), long enough post-GST to hear every honest
//     replica's NewView, so no honest lock exceeds its justify.
//
// Under both rules a leader that formed QC(v-1) itself (it led v-1 too,
// as Lumiere's leaders do for two consecutive views) passes the gate for
// v at once: no replica can hold a higher QC, so no NewView can tell it
// anything. Each QC is announced once. QC(v) rides proposal v+1 as its
// justify when that proposal leaves in the instant QC(v) formed (over
// TCP, the same pass of the node's event loop); otherwise it leaves as a
// QcMsg broadcast at the end of that instant (the next view is someone
// else's, is an initial view waiting for Lumiere's VC, or is not entered
// yet). A replica that enters v through lead(v)'s proposal for v sends
// no NewView(v): lead(v) has proposed already. The skip keys off the
// proposal being handled, never off a stored proposal for a later view.
//
// The pacemaker is external (that is the whole point of this repository);
// this core sends NewView(high_qc) to lead(v) on entering view v, votes,
// aggregates votes into QCs, and commits.
//
// Drain, then propose: a leader whose gate opens (the 2f+1-th NewView,
// QC(v-1), or the Delta fallback) proposes at the end of that instant,
// from a zero-delay CoreCallbacks::schedule event, so every message
// already delivered to it is handled first. Under the simulator that is
// every event queued for the same instant; over TCP the realtime driver
// fires the event on its next pass, after the frames of the current
// socket poll and the verify pipeline's drain. NewViews that tie with
// the 2f+1-th one (a fixed-delay network delivers a whole view's
// NewViews at once) land in the block instead of one view later, so
// the quorum gate does not favour the lowest sender ids. This holds for
// every proposal, forwarded or disseminated payload alike.
//
// Request forwarding (CoreCallbacks::forwarding, the inline-batch data
// path): the NewView to lead(v) also carries the requests this replica
// admitted since its last attachment, so a request waits at most a view
// for a proposer instead of ~n views for its own replica's leader turn.
// When lead(v) leads v+1 too, it proposes v+1 before any NewView(v+1)
// could reach it, so each replica's requests for v+1 ride its vote for v
// instead (lead(v)'s own ride its NewView(v+1) to itself).
//
//   * lead(v) proposes the attachments of the NewViews (and votes) it
//     received before proposing, in arrival order, within
//     max_batch_bytes.
//   * Relay: what lead(v)'s block cannot take (past max_batch_bytes, or
//     held back by an uncommitted ancestor or an earlier copy in the
//     block: exclusions that lapse if that block dies), and attachments
//     that reach lead(v) after it proposed, ride its own next NewView
//     (normally v+1), which re-filters them against the block its QC
//     certifies. lead(v) sends that NewView the moment it forms QC(v),
//     before announcing the QC, so it reaches lead(v+1) ahead of QC(v)
//     itself (on which a responsive HotStuff-2 leader's gate opens).
//     Attachments from lead(v-1) are never relayed again: they carry its
//     relay, and the origins re-attach what proposal v leaves out.
//   * Exactly-once: a proposer drops, and a voter refuses, any request
//     tag (consensus/request_tag.h) already in an uncommitted ancestor
//     or in the committed-tag index, or repeated within the block.
//   * Liveness stays with the origin: its mempool re-attaches a request
//     whose view passed without a proposal carrying it, and keeps it
//     until a commit acks it (consensus/mempool.h).
//
// x = 4 for (diamond-1) under both rules: new-view (or the Delta-wait) +
// proposal + vote + QC dissemination. A leader's second view skips the
// new-view hop, but its first view still pays it, so x stays 4. Within a
// synchronized run HotStuff-2 always takes the responsive path, so
// decisions land one round earlier than with the 3-chain rule — its
// headline saving.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/view_set.h"
#include "consensus/block.h"
#include "consensus/core.h"
#include "consensus/messages.h"
#include "consensus/request_tag.h"
#include "consensus/vote_collector.h"
#include "crypto/authenticator.h"

namespace lumiere::consensus {

/// What tells the chained protocols apart.
struct ChainRule {
  enum class Vote { kSafeNode, kExtendsJustify };
  enum class Gate { kNewViewQuorum, kResponsiveOrDelta };

  /// QCs in a commit chain; the lock chain is one QC shorter.
  std::uint32_t depth;
  Vote vote;
  Gate gate;

  static constexpr ChainRule hotstuff() { return {3, Vote::kSafeNode, Gate::kNewViewQuorum}; }
  static constexpr ChainRule hotstuff2() {
    return {2, Vote::kExtendsJustify, Gate::kResponsiveOrDelta};
  }
};

class ChainedCore final : public ConsensusCore {
 public:
  using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

  /// Distinct late blocks admitted per stale view, capped — bounds what
  /// an ex-leader can stuff into the store while still admitting both
  /// variants of an equivocated view (keying on view alone let the
  /// losing variant occupy the slot and dropped the certified winner).
  static constexpr std::uint32_t kMaxStaleBlocksPerView = 4;

  ChainedCore(ChainRule rule, const ProtocolParams& params, crypto::AuthView auth,
              crypto::Signer signer, CoreCallbacks callbacks, PacemakerHooks hooks,
              PayloadProvider payload_provider = nullptr);

  [[nodiscard]] std::uint32_t x() const override { return 4; }
  void on_enter_view(View v) override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_propose_allowed(View /*v*/) override { maybe_propose(); }
  [[nodiscard]] const QuorumCert& high_qc() const override { return high_qc_; }
  void on_synced_block(const Block& block) override;
  [[nodiscard]] std::shared_ptr<const Block> block_for_sync(
      const crypto::Digest& hash) const override;

  [[nodiscard]] View current_view() const noexcept { return cur_view_; }
  [[nodiscard]] View last_voted_view() const noexcept { return last_voted_view_; }
  [[nodiscard]] const QuorumCert& locked_qc() const noexcept { return locked_qc_; }
  [[nodiscard]] const BlockStore& block_store() const noexcept { return store_; }
  [[nodiscard]] View last_committed_view() const noexcept { return last_committed_view_; }
  /// HotStuff-2 gate: views this node proposed in at once (holding
  /// QC(v-1)) / only after the Delta fallback elapsed.
  [[nodiscard]] std::uint64_t responsive_proposals() const noexcept {
    return responsive_proposals_;
  }
  [[nodiscard]] std::uint64_t fallback_proposals() const noexcept { return fallback_proposals_; }
  /// Forwarding: the committed-tag index (empty with forwarding off).
  [[nodiscard]] const CommittedTags& committed_tags() const noexcept { return committed_tags_; }
  /// Distinct views that still hold leader-side state (NewView senders,
  /// forwarded attachments, armed and proposal marks, elapsed fallbacks,
  /// vote aggregation). Entries below the current view are dropped on view
  /// entry, so this stays O(1) however long the node runs.
  [[nodiscard]] std::size_t leader_state_views() const;

 private:
  void handle_new_view(ProcessId from, const MessagePtr& msg);
  /// Sends NewView(v, high_qc) to lead(v), carrying the relay and this
  /// node's own requests when forwarding is on.
  void send_new_view(View v, const QuorumCert& high_qc);
  /// Forwarding: the relay (re-filtered against `tip`), then this node's
  /// own requests, for an attachment to lead(v).
  [[nodiscard]] std::vector<std::uint8_t> forward_requests(View v, const crypto::Digest& tip);
  /// Takes in QC(v), which this node just formed as lead(v): sends the
  /// early NewView(v+1) when forwarding, processes the QC, and broadcasts
  /// it at the end of the instant unless a proposal carried it.
  void announce(const QuorumCert& qc);
  /// Forwarding: buffers `msg`'s requests for view v (this node leads
  /// it): into the block when v has no proposal yet, else the relay.
  void take_requests(ProcessId from, View v, const MessagePtr& msg);
  [[nodiscard]] bool forwarding() const noexcept { return cb_.forwarding.attach != nullptr; }
  /// Inserts into store_ (returning the stored allocation), recording
  /// a new block's request tags in pending_tags_ when forwarding.
  std::shared_ptr<const Block> store(std::shared_ptr<const Block> block);
  /// True if `tip` or an uncommitted ancestor holds `tag`, as far as the
  /// store reaches (a replica missing an ancestor checks what it has;
  /// refusing instead would let one lagging replica block a quorum).
  /// `below` bounds the chain's views: the view of the block extending
  /// `tip`.
  [[nodiscard]] bool chain_holds(RequestTag tag, const crypto::Digest& tip, View below) const;
  /// Forwarding: NewViews and votes carrying requests, with their
  /// senders, in arrival order.
  using Attachments = std::vector<std::pair<ProcessId, MessagePtr>>;
  /// Appends `msg` unless `into` already holds one of its kind (NewView
  /// or vote) from `from`. A replica that attached to its vote for v-1
  /// still sends NewView(v) when it enters v on a QcMsg (lead(v) waits
  /// for its VC), carrying what it admitted since.
  static void buffer(Attachments& into, ProcessId from, const MessagePtr& msg);
  /// Whether lead(v) relays what it cannot propose of `from`'s
  /// attachment for v: everyone's but lead(v-1)'s, itself a relay.
  [[nodiscard]] bool relays(ProcessId from, View v) const;
  /// The tagged requests of `attachments` that a block or NewView for
  /// `view` extending `tip` may carry: no tag of tip's uncommitted chain
  /// or of the committed index, none twice, within max_batch_bytes;
  /// arrival order. `overflow`, if given, receives every attachment with
  /// an uncommitted request the result leaves out.
  [[nodiscard]] std::vector<std::uint8_t> gather(const Attachments& attachments,
                                                 const crypto::Digest& tip, View view,
                                                 Attachments* overflow = nullptr) const;
  /// The voter's exclusion rule (forwarding on): no tag of `block` is in
  /// its uncommitted ancestors, in the committed index, or in it twice.
  [[nodiscard]] bool fresh_payload(const Block& block) const;
  void handle_proposal(ProcessId from, const ProposalMsg& msg);
  void handle_vote(ProcessId from, const MessagePtr& msg);
  void handle_qc_msg(const QcMsg& msg);
  /// Proposes for the current view once its gate is open: `drained`
  /// only from the zero-delay event the first open gate arms. Without a
  /// schedule callback (a core driven directly) it proposes at once.
  void maybe_propose(bool drained = false);
  void maybe_vote();
  /// Chain bookkeeping for any newly observed QC: high-qc update, lock,
  /// commit.
  void process_qc(const QuorumCert& qc);
  void commit_chain(const Block& tip);
  [[nodiscard]] bool safe_to_vote(const Block& block) const;

  ChainRule rule_;
  ProtocolParams params_;
  crypto::AuthView auth_;
  crypto::Signer signer_;
  CoreCallbacks cb_;
  PacemakerHooks hooks_;
  PayloadProvider payload_provider_;

  View cur_view_ = -1;
  View last_voted_view_ = -1;
  QuorumCert high_qc_;
  QuorumCert locked_qc_;
  View last_committed_view_ = -1;
  crypto::Digest last_committed_hash_;
  /// Block-sync state: the commit-walk tip that wedged on a missing
  /// ancestor and the hash handed to CoreCallbacks::fetch_missing; the
  /// walk resumes from the tip when that exact block is synced in.
  bool sync_pending_ = false;
  crypto::Digest sync_tip_;
  crypto::Digest sync_missing_;

  /// The uncommitted chain: blocks above the commit horizon (forks and
  /// late stale-view admissions included) plus the last committed block,
  /// where the commit walk reconnects. commit_chain prunes the rest; the
  /// ledger holds committed blocks (CoreCallbacks::committed_block).
  BlockStore store_;
  std::map<View, std::uint32_t> stale_stored_;
  /// Leader-side state, per view this node leads. Entries below the
  /// current view are pruned on view entry (nothing reads them).
  /// NewView senders (NewView-quorum gate):
  std::map<View, SignerSet> new_view_senders_;
  /// Views whose Delta fallback timer expired while this node led them.
  std::set<View> fallback_elapsed_;
  /// Views whose proposal gate opened and whose zero-delay proposal
  /// event is pending (drain, then propose).
  std::set<View> armed_;
  /// Views this node proposed in.
  std::set<View> proposed_;
  /// While a proposal for view v is handled: v, the view whose entry
  /// through it sends no NewView. -1 otherwise.
  View entering_by_proposal_ = -1;
  std::uint64_t responsive_proposals_ = 0;
  std::uint64_t fallback_proposals_ = 0;
  std::map<View, std::shared_ptr<const Block>> pending_proposals_;
  /// Views whose QC this node has reported through qc_seen (dedup).
  ViewSet seen_qc_views_;
  /// Forwarding: NewViews and votes with requests for views this node
  /// leads, received before it proposed (at most one of each per sender
  /// and view).
  std::map<View, Attachments> forwarded_;
  /// Forwarding: attachments whose requests arrived after this node
  /// proposed, or that its block could not take in full; they ride its
  /// next NewView (at most one of each kind per sender).
  Attachments relay_;
  /// Forwarding: every tag this node committed.
  CommittedTags committed_tags_;
  /// Forwarding: the sorted request tags of each stored block above the
  /// commit horizon that carries any. The exclusion rule walks the chain
  /// only to confirm that a block holding a tag is an ancestor.
  struct BlockTags {
    View view;
    crypto::Digest hash;
    std::vector<RequestTag> tags;
  };
  std::vector<BlockTags> pending_tags_;
  /// The highest view this node sent its NewView for (the early send at
  /// QC formation runs ahead of view entry).
  View new_view_sent_ = -1;
  /// Hot-path memos: per-(view, block) vote statements and fingerprints
  /// of QCs that already passed full verification.
  StatementCache statements_;
  QcVerifyCache verified_;
  VoteCollector votes_;
};

}  // namespace lumiere::consensus
