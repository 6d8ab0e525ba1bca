#include "consensus/chained_core.h"

#include <algorithm>

#include "common/log.h"
#include "consensus/mempool.h"

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
      votes_(auth, signer.id(), params.quorum(), hooks_, cb_, statements_,
             [this](const QuorumCert& qc) { send_relay_early(qc); }) {
  LUMIERE_ASSERT(auth);
  LUMIERE_ASSERT(rule.depth >= 2);
  params_.validate();
}

void ChainedCore::on_enter_view(View v) {
  if (v <= cur_view_) return;
  cur_view_ = v;
  pending_proposals_.erase(pending_proposals_.begin(), pending_proposals_.lower_bound(v));
  // Leader state of passed views: handle_new_view and the vote collector
  // ignore views below cur_view_, maybe_propose reads only cur_view_.
  new_view_senders_.erase(new_view_senders_.begin(), new_view_senders_.lower_bound(v));
  fallback_elapsed_.erase(fallback_elapsed_.begin(), fallback_elapsed_.lower_bound(v));
  proposed_.erase(proposed_.begin(), proposed_.lower_bound(v));
  votes_.enter_view(v);
  // Attachments for views left without a proposal: their origins
  // re-attach them.
  forwarded_.erase(forwarded_.begin(), forwarded_.lower_bound(v));
  if (v > new_view_sent_) send_new_view(v, high_qc_);
  if (rule_.gate == ChainRule::Gate::kResponsiveOrDelta && hooks_.leader_of(v) == signer_.id() &&
      cb_.schedule) {
    // Arm the fallback: without a QC for v-1 in hand, wait Delta so the
    // highest locked honest replica's NewView can arrive (post-GST).
    cb_.schedule(params_.delta_cap, [this, v] {
      if (v >= cur_view_) fallback_elapsed_.insert(v);  // a passed view stays pruned
      maybe_propose();
    });
  }
  maybe_propose();
  maybe_vote();
}

std::size_t ChainedCore::leader_state_views() const {
  std::set<View> views;
  for (const auto& [v, senders] : new_view_senders_) views.insert(v);
  views.insert(fallback_elapsed_.begin(), fallback_elapsed_.end());
  views.insert(proposed_.begin(), proposed_.end());
  for (const auto& [v, attachments] : forwarded_) views.insert(v);
  votes_.collect_views(views);
  return views.size();
}

void ChainedCore::send_new_view(View v, const QuorumCert& high_qc) {
  // Report the highest QC to the new leader: the NewView-quorum gate
  // waits for 2f+1 of these; under the responsive gate they carry QC(v-1)
  // or, during the Delta fallback, the highest honest lock.
  new_view_sent_ = v;
  std::vector<std::uint8_t> requests;
  if (forwarding()) {
    // The relay first (the older requests), then this node's own.
    requests = gather(relay_, high_qc.block_hash(), v);
    relay_.clear();
    std::vector<std::uint8_t> own = cb_.forwarding.attach(v);
    if (requests.empty()) {
      requests = std::move(own);
    } else {
      requests.insert(requests.end(), own.begin(), own.end());
    }
  }
  cb_.send(hooks_.leader_of(v), std::make_shared<NewViewMsg>(v, high_qc, std::move(requests)));
}

void ChainedCore::send_relay_early(const QuorumCert& qc) {
  // This node, as lead(v), just formed QC(v). Its NewView(v+1) leaves
  // now, ahead of the QC broadcast: on the same link it then reaches
  // lead(v+1) before QC(v) can move that leader into v+1, so the relay
  // makes even a responsive HotStuff-2 proposal. Entering v+1 later
  // sends no second NewView.
  if (!forwarding() || qc.view() != cur_view_ || new_view_sent_ > qc.view()) return;
  send_new_view(qc.view() + 1, qc);
}

void ChainedCore::handle_new_view(ProcessId from, const MessagePtr& ptr) {
  const auto& msg = static_cast<const NewViewMsg&>(*ptr);
  const View v = msg.view();
  if (hooks_.leader_of(v) != signer_.id()) return;
  if (v < cur_view_) return;  // stale
  // Buffered before the QC below is processed, which may move this node
  // into v and so into proposing. One attachment per sender, for this
  // view or the next (lead(v-1) sends NewView(v) at QC formation), so a
  // Byzantine sender cannot crowd out the others; whatever is dropped,
  // its origin re-attaches.
  if (forwarding() && !msg.requests().empty()) {
    if (!proposed_.contains(v)) {
      if (v <= cur_view_ + 1) buffer(forwarded_[v], from, ptr);
    } else if (v == 0 || from != hooks_.leader_of(v - 1)) {
      buffer(relay_, from, ptr);
    }
  }
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

namespace {

/// The request tags of a payload, sorted.
std::vector<RequestTag> sorted_tags(std::span<const std::uint8_t> payload) {
  std::size_t count = 0;
  for_each_command(payload, [&count](std::span<const std::uint8_t>) { ++count; });
  std::vector<RequestTag> tags;
  tags.reserve(count);
  for_each_command(payload, [&tags](std::span<const std::uint8_t> command) {
    if (const auto tag = request_tag(command)) tags.push_back(*tag);
  });
  std::sort(tags.begin(), tags.end());
  return tags;
}

}  // namespace

std::shared_ptr<const Block> ChainedCore::store(std::shared_ptr<const Block> block) {
  if (forwarding() && block->view() > last_committed_view_ && !store_.contains(block->hash())) {
    std::vector<RequestTag> tags = sorted_tags(block->payload());
    if (!tags.empty()) {
      pending_tags_.push_back(BlockTags{block->view(), block->hash(), std::move(tags)});
    }
  }
  return store_.insert(std::move(block));
}

bool ChainedCore::chain_holds(RequestTag tag, const crypto::Digest& tip, View below) const {
  for (const BlockTags& entry : pending_tags_) {
    // Only a block below the one being built or checked can be its
    // ancestor; the walk confirms that it is one.
    if (entry.view >= below || !std::binary_search(entry.tags.begin(), entry.tags.end(), tag)) {
      continue;
    }
    for (auto block = store_.get(tip);
         block != nullptr && block->view() >= entry.view && block->view() > last_committed_view_;
         block = store_.get(block->parent())) {
      if (block->hash() == entry.hash) return true;
    }
  }
  return false;
}

void ChainedCore::buffer(Attachments& into, ProcessId from, const MessagePtr& msg) {
  const bool held = std::any_of(into.begin(), into.end(),
                                [from](const auto& held_one) { return held_one.first == from; });
  if (!held) into.emplace_back(from, msg);
}

std::vector<std::uint8_t> ChainedCore::gather(const Attachments& attachments,
                                              const crypto::Digest& tip, View view) const {
  std::vector<std::pair<RequestTag, std::span<const std::uint8_t>>> candidates;
  for (const auto& [from, attachment] : attachments) {
    const auto& requests = static_cast<const NewViewMsg&>(*attachment).requests();
    for_each_command(requests, [&](std::span<const std::uint8_t> command) {
      const auto tag = request_tag(command);
      if (tag && !committed_tags_.contains(*tag)) candidates.emplace_back(*tag, command);
    });
  }
  if (candidates.empty()) return {};
  std::size_t offered = 0;
  for (const auto& candidate : candidates) offered += candidate.second.size() + 4;
  std::vector<RequestTag> taken;
  ser::Writer w(std::min(offered, cb_.forwarding.max_batch_bytes));
  std::size_t used = 0;
  for (const auto& [tag, command] : candidates) {
    const std::size_t cost = command.size() + 4;  // u32 length prefix
    if (used + cost > cb_.forwarding.max_batch_bytes ||
        std::find(taken.begin(), taken.end(), tag) != taken.end() ||
        chain_holds(tag, tip, view)) {
      continue;
    }
    taken.push_back(tag);
    w.bytes(command);
    used += cost;
  }
  return std::move(w).take();
}

bool ChainedCore::fresh_payload(const Block& block) const {
  // A proposal's tags were sorted when it entered the store.
  const auto indexed =
      std::find_if(pending_tags_.begin(), pending_tags_.end(), [&](const BlockTags& entry) {
        return entry.view == block.view() && entry.hash == block.hash();
      });
  std::vector<RequestTag> parsed;
  if (indexed == pending_tags_.end()) parsed = sorted_tags(block.payload());
  const std::vector<RequestTag>& tags = indexed == pending_tags_.end() ? parsed : indexed->tags;
  if (std::adjacent_find(tags.begin(), tags.end()) != tags.end()) return false;
  return std::none_of(tags.begin(), tags.end(), [&](RequestTag tag) {
    return committed_tags_.contains(tag) || chain_holds(tag, block.parent(), block.view());
  });
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
  if (forwarding()) {
    const auto it = forwarded_.find(v);
    if (it != forwarded_.end()) {
      payload = gather(it->second, high_qc_.block_hash(), v);
      forwarded_.erase(it);
    }
  } else if (payload_provider_) {
    payload = payload_provider_(v);
  }
  auto block =
      std::make_shared<const Block>(high_qc_.block_hash(), v, std::move(payload), high_qc_);
  votes_.proposed(v, block->hash());
  store(block);
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
  if (forwarding() && !fresh_payload(block)) return;
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
  auto stored = store(msg.shared_block());
  // Before the justify can move this node into a later view, whose
  // NewView would otherwise re-attach requests this block carries.
  if (forwarding() && cb_.forwarding.proposed) cb_.forwarding.proposed(block);
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
  if (seen_qc_views_.insert(qc.view()) && cb_.qc_seen) cb_.qc_seen(qc);

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
    if (forwarding()) {
      for_each_command((*it)->payload(), [this](std::span<const std::uint8_t> command) {
        if (const auto tag = request_tag(command)) committed_tags_.insert(*tag);
      });
    }
    if (cb_.decided) cb_.decided(*it);
  }
  // Tags at or below the horizon are the committed index's now (or sat
  // on a branch that can no longer commit); so are the blocks, but for
  // the one the next walk reconnects to.
  std::erase_if(pending_tags_,
                [this](const BlockTags& entry) { return entry.view <= last_committed_view_; });
  store_.prune_through(last_committed_view_, last_committed_hash_);
}

void ChainedCore::on_synced_block(const Block& block) {
  // A late response: the walk never crosses below the horizon.
  if (block.view() <= last_committed_view_) return;
  store(block.shared_from_this());
  // Resume only when the exact gap the walk reported is filled: the sync
  // layer delivers a response segment deepest-first, so the requested
  // block lands last and the walk crosses the whole segment in one pass
  // (re-wedging on the next gap re-arms sync_pending_ and fetches on).
  if (!sync_pending_ || block.hash() != sync_missing_) return;
  sync_pending_ = false;
  const auto tip = store_.get(sync_tip_);
  if (tip != nullptr && tip->view() > last_committed_view_) commit_chain(*tip);
}

std::shared_ptr<const Block> ChainedCore::block_for_sync(const crypto::Digest& hash) const {
  if (auto block = store_.get(hash)) return block;
  return cb_.committed_block ? cb_.committed_block(hash) : nullptr;
}

void ChainedCore::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kNewView:
      handle_new_view(from, msg);
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
