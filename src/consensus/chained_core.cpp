#include "consensus/chained_core.h"

#include "common/log.h"

namespace lumiere::consensus {

ChainedCore::ChainedCore(ChainRule rule, const ProtocolParams& params, crypto::AuthView auth,
                         crypto::Signer signer, CoreCallbacks callbacks, PacemakerHooks hooks,
                         PayloadProvider payload_provider)
    : rule_(rule),
      params_(params),
      auth_(auth),
      signer_(signer),
      cb_(std::move(callbacks)),
      hooks_(std::move(hooks)),
      payload_provider_(std::move(payload_provider)),
      high_qc_(QuorumCert::genesis(Block::genesis().hash())),
      locked_qc_(high_qc_),
      last_committed_hash_(Block::genesis().hash()),
      votes_(auth, signer.id(), params.quorum(), hooks_, cb_, statements_) {
  LUMIERE_ASSERT(auth);
  LUMIERE_ASSERT(rule.depth >= 2);
  params_.validate();
}

void ChainedCore::on_enter_view(View v) {
  if (v <= cur_view_) return;
  cur_view_ = v;
  pending_proposals_.erase(pending_proposals_.begin(), pending_proposals_.lower_bound(v));
  // Report the highest QC to the new leader: the NewView-quorum gate
  // waits for 2f+1 of these; under the responsive gate they carry QC(v-1)
  // or, during the Delta fallback, the highest honest lock.
  cb_.send(hooks_.leader_of(v), std::make_shared<NewViewMsg>(v, high_qc_));
  if (rule_.gate == ChainRule::Gate::kResponsiveOrDelta && hooks_.leader_of(v) == signer_.id() &&
      cb_.schedule) {
    // Arm the fallback: without a QC for v-1 in hand, wait Delta so the
    // highest locked honest replica's NewView can arrive (post-GST).
    cb_.schedule(params_.delta_cap, [this, v] {
      fallback_elapsed_.insert(v);
      maybe_propose();
    });
  }
  maybe_propose();
  maybe_vote();
}

void ChainedCore::handle_new_view(ProcessId from, const NewViewMsg& msg) {
  const View v = msg.view();
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (v < cur_view_) return;  // stale
  const bool valid = msg.high_qc().verify(auth_, params_, &verified_);
  if (valid) process_qc(msg.high_qc());
  if (rule_.gate == ChainRule::Gate::kNewViewQuorum) {
    // The quorum counts senders in view v, whatever QC they reported.
    new_view_senders_.try_emplace(v, SignerSet(params_.n)).first->second.add(from);
  } else if (!valid) {
    return;
  }
  maybe_propose();
}

void ChainedCore::maybe_propose() {
  const View v = cur_view_;
  if (v < 0) return;
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (proposed_.contains(v)) return;
  if (hooks_.may_propose && !hooks_.may_propose(v)) return;
  if (rule_.gate == ChainRule::Gate::kNewViewQuorum) {
    const auto it = new_view_senders_.find(v);
    if (it == new_view_senders_.end() || it->second.count() < params_.quorum()) return;
  } else {
    // The genesis QC (view -1) certifies view 0's parent, so view 0 is
    // responsive by construction.
    const bool responsive = high_qc_.view() == v - 1;
    const bool fallback = fallback_elapsed_.contains(v) || cb_.schedule == nullptr;
    if (!responsive && !fallback) return;
    responsive ? ++responsive_proposals_ : ++fallback_proposals_;
  }

  proposed_.insert(v);
  std::vector<std::uint8_t> payload;
  if (payload_provider_) payload = payload_provider_(v);
  auto block =
      std::make_shared<const Block>(high_qc_.block_hash(), v, std::move(payload), high_qc_);
  votes_.proposed(v, block->hash());
  store_.insert(block);
  LOG_TRACE("p" << signer_.id() << " proposes view " << v);
  cb_.broadcast(std::make_shared<ProposalMsg>(std::move(block)));
}

bool ChainedCore::safe_to_vote(const Block& block) const {
  if (block.view() <= last_voted_view_) return false;
  const QuorumCert& justify = block.justify();
  if (rule_.vote == ChainRule::Vote::kSafeNode) {
    // safeNode: a newer justify than our lock, or extends the locked
    // block (the standard HotStuff disjunction).
    return justify.view() > locked_qc_.view() ||
           store_.extends(block.hash(), locked_qc_.block_hash());
  }
  // Two-phase rule: the proposal must extend exactly the block its
  // justify certifies — a Byzantine leader pairing an old QC with an
  // unrelated parent must not collect votes — and the justify must be at
  // least as new as our lock (>= rather than >: the lock itself may be
  // re-proposed under the same justify after a failed view — the
  // Jolteon/HotStuff-2 disjunction).
  return block.parent() == justify.block_hash() && justify.view() >= locked_qc_.view();
}

void ChainedCore::maybe_vote() {
  const auto it = pending_proposals_.find(cur_view_);
  if (it == pending_proposals_.end()) return;
  const Block& block = *it->second;
  if (!safe_to_vote(block)) return;
  if (cb_.payload_ok && !cb_.payload_ok(block)) return;
  last_voted_view_ = block.view();
  const crypto::Digest statement = statements_.get(block.view(), block.hash());
  cb_.send(hooks_.leader_of(block.view()),
           std::make_shared<VoteMsg>(block.view(), block.hash(),
                                     crypto::threshold_share(signer_, statement)));
}

void ChainedCore::handle_proposal(ProcessId from, const ProposalMsg& msg) {
  const Block& block = msg.block();
  const View v = block.view();
  if (hooks_.leader_of(v) != from) return;
  // Commit horizon: the commit walk never crosses below the committed
  // block, so blocks at or under it are dead weight — and dropping them
  // bounds what a past leader can stuff into the store.
  if (v <= last_committed_view_) return;
  if (!block.justify().verify(auth_, params_, &verified_)) return;
  // Store even when the view has passed: commit_chain refuses to commit
  // across a missing ancestor, so a verified block that arrives late
  // (real networks reorder across senders) must still enter the store or
  // this node's ledger stalls forever. Voting stays view-gated below.
  // The late-admission cap counts DISTINCT blocks per view (re-delivery
  // of a stored block is free): an equivocating ex-leader has two
  // variants in flight, and the certified winner must not be dropped
  // because the losing variant claimed the view's only slot first.
  if (v < cur_view_ && !store_.contains(block.hash())) {
    std::uint32_t& admitted = stale_stored_[v];
    if (admitted >= kMaxStaleBlocksPerView) return;
    ++admitted;
  }
  auto stored = store_.insert(msg.shared_block());
  process_qc(block.justify());  // a proposal piggybacks the QC it extends
  if (v < cur_view_) return;    // too late to vote
  pending_proposals_.try_emplace(v, std::move(stored));
  maybe_vote();
}

void ChainedCore::handle_qc_msg(const QcMsg& msg) {
  if (!msg.qc().verify(auth_, params_, &verified_)) return;
  process_qc(msg.qc());
  // The QC may have just unlocked the responsive path for a view this
  // node already entered (QC(v-1) arriving after the view change).
  if (rule_.gate == ChainRule::Gate::kResponsiveOrDelta) maybe_propose();
}

void ChainedCore::process_qc(const QuorumCert& qc) {
  if (qc.view() > high_qc_.view()) high_qc_ = qc;
  const auto lock = [this](const QuorumCert& candidate) {
    if (candidate.view() > locked_qc_.view()) locked_qc_ = candidate;
  };
  // The chain: qc certifies b0; each link steps from b_i to its parent,
  // certified by b_i's justify. The commit chain is rule_.depth QCs, the
  // lock chain one shorter. A 1-chain lock is qc itself and takes effect
  // before qc_seen, whose pacemaker reaction can re-enter on_enter_view
  // and vote.
  const std::uint32_t lock_links = rule_.depth - 2;
  if (lock_links == 0) lock(qc);
  if (seen_qc_views_.insert(qc.view()).second && cb_.qc_seen) cb_.qc_seen(qc);

  const QuorumCert* link = &qc;
  bool consecutive = true;
  for (std::uint32_t i = 1; i < rule_.depth; ++i) {
    const auto block = store_.get(link->block_hash());
    if (block == nullptr) return;
    const QuorumCert& justify = block->justify();
    if (block->parent() != justify.block_hash()) return;  // not a direct link
    consecutive = consecutive && link->view() == justify.view() + 1;
    link = &justify;  // the store keeps the block alive
    if (i == lock_links) lock(justify);
  }
  if (!consecutive) return;
  const auto tip = store_.get(link->block_hash());
  if (tip != nullptr && tip->view() > last_committed_view_) commit_chain(*tip);
}

void ChainedCore::commit_chain(const Block& tip) {
  // Commit every uncommitted ancestor of `tip` (inclusive), oldest first.
  std::vector<std::shared_ptr<const Block>> chain;
  auto current = store_.get(tip.hash());
  while (current != nullptr && current->view() > last_committed_view_) {
    chain.push_back(current);
    current = store_.get(current->parent());
  }
  // The chain must reconnect to the last committed block. A hash
  // mismatch means a fork — commit nothing. A missing ancestor is either
  // a late block that will still arrive or one no peer will ever re-send
  // (an equivocation victim holding the losing variant, or a replica
  // whose crash lost history — peers only stream new proposals). `tip`
  // satisfies the commit rule, so every block collected above is already
  // committed cluster-wide: block sync fetches the missing ancestor from
  // peers and the walk resumes in on_synced_block, backfilling the full
  // history from genesis.
  if (current == nullptr || current->hash() != last_committed_hash_) {
    if (current == nullptr && !chain.empty() && cb_.fetch_missing) {
      sync_pending_ = true;
      sync_tip_ = tip.hash();
      sync_missing_ = chain.back()->parent();
      cb_.fetch_missing(sync_missing_);
    }
    return;
  }
  sync_pending_ = false;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    last_committed_view_ = (*it)->view();
    last_committed_hash_ = (*it)->hash();
    stale_stored_.erase(stale_stored_.begin(),
                        stale_stored_.upper_bound(last_committed_view_));
    if (cb_.decided) cb_.decided(*it);
  }
}

void ChainedCore::on_synced_block(const Block& block) {
  store_.insert(block.shared_from_this());
  // Resume only when the exact gap the walk reported is filled: the sync
  // layer delivers a response segment deepest-first, so the requested
  // block lands last and the walk crosses the whole segment in one pass
  // (re-wedging on the next gap re-arms sync_pending_ and fetches on).
  if (!sync_pending_ || block.hash() != sync_missing_) return;
  sync_pending_ = false;
  const auto tip = store_.get(sync_tip_);
  if (tip != nullptr && tip->view() > last_committed_view_) commit_chain(*tip);
}

void ChainedCore::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kNewView:
      handle_new_view(from, static_cast<const NewViewMsg&>(*msg));
      break;
    case kProposal:
      handle_proposal(from, static_cast<const ProposalMsg&>(*msg));
      break;
    case kVote:
      votes_.on_vote(static_cast<const VoteMsg&>(*msg), cur_view_);
      break;
    case kQcAnnounce:
      handle_qc_msg(static_cast<const QcMsg&>(*msg));
      break;
    default:
      break;
  }
}

}  // namespace lumiere::consensus
