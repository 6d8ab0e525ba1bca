// SimpleViewCore: the minimal underlying protocol of Section 2.
//
// One propose/vote/QC exchange per view:
//
//   leader enters v  --proposal-->  replicas in v  --votes-->  leader
//   leader aggregates 2f+1 votes --QC broadcast--> everyone
//
// This satisfies (diamond-1) with x = 3 (proposal delta + votes delta +
// QC dissemination delta) and (diamond-2) because a QC needs 2f+1
// view-v vote shares. It is the core used by all BVS benchmarks: it
// isolates view-synchronization cost exactly as the paper's model does.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/core.h"
#include "consensus/messages.h"
#include "consensus/vote_collector.h"
#include "crypto/authenticator.h"

namespace lumiere::consensus {

class SimpleViewCore final : public ConsensusCore {
 public:
  /// Optional payload source consulted when this node proposes.
  using PayloadProvider = std::function<std::vector<std::uint8_t>(View)>;

  SimpleViewCore(const ProtocolParams& params, crypto::AuthView auth, crypto::Signer signer,
                 CoreCallbacks callbacks, PacemakerHooks hooks,
                 PayloadProvider payload_provider = nullptr);

  [[nodiscard]] std::uint32_t x() const override { return 3; }
  void on_enter_view(View v) override;
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_propose_allowed(View v) override;
  [[nodiscard]] const QuorumCert& high_qc() const override { return high_qc_; }

  [[nodiscard]] View current_view() const noexcept { return cur_view_; }
  [[nodiscard]] View last_voted_view() const noexcept { return last_voted_view_; }

 private:
  void maybe_propose(View v);
  void maybe_vote(View v);
  void handle_proposal(ProcessId from, const ProposalMsg& msg);
  void handle_qc(const QcMsg& msg);

  ProtocolParams params_;
  crypto::AuthView auth_;
  crypto::Signer signer_;
  CoreCallbacks cb_;
  PacemakerHooks hooks_;
  PayloadProvider payload_provider_;

  View cur_view_ = -1;
  View last_voted_view_ = -1;
  QuorumCert high_qc_;

  /// First valid proposal seen per view (buffered until we enter the view).
  std::map<View, std::shared_ptr<const Block>> proposals_;
  /// Views in which this node has already broadcast its own proposal.
  std::set<View> proposed_;
  /// Views for which some QC has already been observed (dedupe).
  std::set<View> seen_qc_views_;
  /// Hot-path memos: per-(view, block) vote statements and fingerprints
  /// of QCs that already passed full verification.
  StatementCache statements_;
  QcVerifyCache verified_;
  VoteCollector votes_;
};

}  // namespace lumiere::consensus
