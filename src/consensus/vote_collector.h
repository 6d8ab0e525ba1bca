// Leader-side vote aggregation, shared by every core. A leader counts
// votes only for its own proposal and only while still in the view:
// (diamond-2) wants a QC from 2f+1 processors in view v over a shared
// interval, not from stragglers passing through v at disjoint times.
// The first quorum closes the view; the QC is formed and broadcast
// unless the pacemaker forfeits it (Lumiere's deadline, Section 4).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>

#include "consensus/core.h"
#include "consensus/messages.h"

namespace lumiere::consensus {

class VoteCollector {
 public:
  /// Borrows the owning core's hooks, callbacks and statement memo.
  /// `before_broadcast` (optional) runs between CoreCallbacks::qc_formed
  /// and the QC broadcast.
  VoteCollector(crypto::AuthView auth, ProcessId self, std::uint32_t quorum,
                const PacemakerHooks& hooks, const CoreCallbacks& cb, StatementCache& statements,
                std::function<void(const QuorumCert&)> before_broadcast = nullptr)
      : auth_(auth),
        self_(self),
        quorum_(quorum),
        hooks_(hooks),
        cb_(cb),
        statements_(statements),
        before_broadcast_(std::move(before_broadcast)) {}
  // A copy would still point at the original owner's members.
  VoteCollector(const VoteCollector&) = delete;
  VoteCollector& operator=(const VoteCollector&) = delete;

  /// This node, as lead(v), proposed `hash`: only votes for it count.
  void proposed(View v, const crypto::Digest& hash) { my_proposal_hash_[v] = hash; }

  /// Counts a vote while this node is in `cur_view`; the quorum-completing
  /// vote fires CoreCallbacks::qc_formed, then broadcasts the QC.
  void on_vote(const VoteMsg& msg, View cur_view) {
    const View v = msg.view();
    if (hooks_.leader_of(v) != self_ || v < cur_view || closed_views_.contains(v)) return;
    const auto proposed = my_proposal_hash_.find(v);
    if (proposed == my_proposal_hash_.end() || proposed->second != msg.block_hash()) return;
    auto& agg = aggregators_.try_emplace(v, auth_, statements_.get(v, msg.block_hash()), quorum_)
                    .first->second;
    if (!agg.add(msg.share()) || !agg.complete()) return;
    closed_views_.insert(v);
    if (hooks_.may_form_qc && !hooks_.may_form_qc(v)) {
      aggregators_.erase(v);  // deadline missed: the view is forfeited
      return;
    }
    QuorumCert qc(v, msg.block_hash(), agg.aggregate());
    aggregators_.erase(v);
    if (cb_.qc_formed) cb_.qc_formed(qc);
    if (before_broadcast_) before_broadcast_(qc);
    cb_.broadcast(std::make_shared<QcMsg>(std::move(qc)));
  }

 private:
  crypto::AuthView auth_;
  ProcessId self_;
  std::uint32_t quorum_;
  const PacemakerHooks& hooks_;
  const CoreCallbacks& cb_;
  StatementCache& statements_;
  std::function<void(const QuorumCert&)> before_broadcast_;
  std::map<View, crypto::Digest> my_proposal_hash_;
  std::map<View, crypto::QuorumAggregator> aggregators_;
  std::set<View> closed_views_;  ///< QC formed or forfeited
};

}  // namespace lumiere::consensus
