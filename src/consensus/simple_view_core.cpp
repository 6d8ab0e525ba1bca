#include "consensus/simple_view_core.h"

#include "common/log.h"

namespace lumiere::consensus {

SimpleViewCore::SimpleViewCore(const ProtocolParams& params, crypto::AuthView auth,
                               crypto::Signer signer, CoreCallbacks callbacks,
                               PacemakerHooks hooks, PayloadProvider payload_provider)
    : params_(params),
      auth_(auth),
      signer_(signer),
      cb_(std::move(callbacks)),
      hooks_(std::move(hooks)),
      payload_provider_(std::move(payload_provider)),
      high_qc_(QuorumCert::genesis(Block::genesis().hash())),
      votes_(auth, signer.id(), params.quorum(), hooks_, cb_, statements_) {
  LUMIERE_ASSERT(auth);
  params_.validate();
}

void SimpleViewCore::on_enter_view(View v) {
  if (v <= cur_view_) return;  // monotone; duplicate notifications are no-ops
  cur_view_ = v;
  // Old buffered proposals can never be voted again.
  proposals_.erase(proposals_.begin(), proposals_.lower_bound(v));
  // maybe_propose and the vote collector never look below cur_view_.
  proposed_.erase(proposed_.begin(), proposed_.lower_bound(v));
  votes_.enter_view(v);
  maybe_propose(v);
  maybe_vote(v);
}

void SimpleViewCore::on_propose_allowed(View v) {
  if (v == cur_view_) maybe_propose(v);
}

void SimpleViewCore::maybe_propose(View v) {
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (proposed_.contains(v)) return;
  if (hooks_.may_propose && !hooks_.may_propose(v)) return;
  proposed_.insert(v);
  std::vector<std::uint8_t> payload;
  if (payload_provider_) payload = payload_provider_(v);
  auto block = std::make_shared<const Block>(v, std::move(payload), high_qc_);
  votes_.proposed(v, block->hash());
  LOG_TRACE("p" << signer_.id() << " proposes view " << v);
  cb_.broadcast(std::make_shared<ProposalMsg>(std::move(block)));
}

void SimpleViewCore::maybe_vote(View v) {
  if (v != cur_view_ || v <= last_voted_view_) return;
  const auto it = proposals_.find(v);
  if (it == proposals_.end()) return;
  const Block& block = *it->second;
  if (cb_.payload_ok && !cb_.payload_ok(block)) return;
  last_voted_view_ = v;
  const crypto::Digest statement = statements_.get(v, block.hash());
  cb_.send(hooks_.leader_of(v),
           std::make_shared<VoteMsg>(v, block.hash(), crypto::threshold_share(signer_, statement)));
}

void SimpleViewCore::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kProposal:
      handle_proposal(from, static_cast<const ProposalMsg&>(*msg));
      break;
    case kVote:
      votes_.on_vote(static_cast<const VoteMsg&>(*msg), cur_view_);
      break;
    case kQcAnnounce:
      handle_qc(static_cast<const QcMsg&>(*msg));
      break;
    default:
      break;  // not a consensus message; the Node routes, but be tolerant
  }
}

void SimpleViewCore::handle_proposal(ProcessId from, const ProposalMsg& msg) {
  const View v = msg.block().view();
  if (v < cur_view_) return;
  if (hooks_.leader_of(v) != from) return;  // not the legitimate proposer
  // Keep only the first proposal per view; an equivocating leader simply
  // fails to gather a quorum on either copy.
  proposals_.try_emplace(v, msg.shared_block());
  maybe_vote(v);
}

void SimpleViewCore::handle_qc(const QcMsg& msg) {
  const QuorumCert& qc = msg.qc();
  if (seen_qc_views_.contains(qc.view())) return;
  if (!qc.verify(auth_, params_, &verified_)) return;
  seen_qc_views_.insert(qc.view());
  if (qc.view() > high_qc_.view()) high_qc_ = qc;
  if (cb_.qc_seen) cb_.qc_seen(qc);
}

}  // namespace lumiere::consensus
