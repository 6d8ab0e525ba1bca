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
// The pacemaker is external (that is the whole point of this repository);
// this core sends NewView(high_qc) to lead(v) on entering view v, votes,
// aggregates votes into QCs, and commits.
//
// x = 4 for (diamond-1) under both rules: new-view (or the Delta-wait) +
// proposal + vote + QC dissemination. Within a synchronized run
// HotStuff-2 always takes the responsive path, so decisions land one
// round earlier than with the 3-chain rule — its headline saving.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "consensus/block.h"
#include "consensus/core.h"
#include "consensus/messages.h"
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
      const crypto::Digest& hash) const override {
    return store_.get(hash);
  }

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

 private:
  void handle_new_view(ProcessId from, const NewViewMsg& msg);
  void handle_proposal(ProcessId from, const ProposalMsg& msg);
  void handle_qc_msg(const QcMsg& msg);
  void maybe_propose();
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

  BlockStore store_;
  std::map<View, std::uint32_t> stale_stored_;
  /// NewView senders per view this node leads (NewView-quorum gate).
  std::map<View, SignerSet> new_view_senders_;
  /// Views whose Delta fallback timer expired while this node led them.
  std::set<View> fallback_elapsed_;
  std::uint64_t responsive_proposals_ = 0;
  std::uint64_t fallback_proposals_ = 0;
  std::set<View> proposed_;
  std::map<View, std::shared_ptr<const Block>> pending_proposals_;
  std::set<View> seen_qc_views_;
  /// Hot-path memos: per-(view, block) vote statements and fingerprints
  /// of QCs that already passed full verification.
  StatementCache statements_;
  QcVerifyCache verified_;
  VoteCollector votes_;
};

}  // namespace lumiere::consensus
