#include "sync/block_sync.h"

#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/log.h"

namespace lumiere::sync {

BlockSynchronizer::BlockSynchronizer(ProcessId self, std::uint32_t n, Duration retry_interval,
                                     SyncCallbacks callbacks)
    : self_(self), n_(n), retry_interval_(retry_interval), cb_(std::move(callbacks)) {
  LUMIERE_ASSERT(n_ >= 2);
  rotor_ = (self_ + 1) % n_;
}

ProcessId BlockSynchronizer::next_peer() {
  const ProcessId peer = rotor_;
  rotor_ = (rotor_ + 1) % n_;
  if (rotor_ == self_) rotor_ = (rotor_ + 1) % n_;
  return peer;
}

void BlockSynchronizer::on_missing(const crypto::Digest& hash) {
  if (pending_.contains(hash)) return;  // already in flight
  pending_[hash] = 0;
  send_fetch(hash, 0);
}

void BlockSynchronizer::send_fetch(const crypto::Digest& hash, std::uint64_t attempt) {
  const auto it = pending_.find(hash);
  if (it == pending_.end() || it->second != attempt) return;  // resolved or superseded
  ++fetches_sent_;
  cb_.send(next_peer(),
           std::make_shared<BlockFetchMsg>(hash, BlockRespMsg::kMaxBlocksPerResponse));
  if (cb_.schedule == nullptr) return;
  // Rotate to the next peer if nothing acceptable arrives in time: the
  // chosen peer may be down, partitioned, Byzantine-silent, or itself
  // missing the block.
  it->second = attempt + 1;
  cb_.schedule(retry_interval_, [this, hash, next = attempt + 1] { send_fetch(hash, next); });
}

void BlockSynchronizer::handle_fetch(ProcessId from, const BlockFetchMsg& msg) {
  if (from == self_ || cb_.lookup == nullptr) return;
  const std::uint32_t limit =
      std::min(msg.max_blocks(), BlockRespMsg::kMaxBlocksPerResponse);
  BlockRespMsg::Blocks blocks;
  auto current = cb_.lookup(msg.hash());
  while (current != nullptr && blocks.size() < limit &&
         current->view() > consensus::Block::genesis().view()) {
    blocks.push_back(current);
    current = cb_.lookup(current->parent());
  }
  // Nothing useful to say (we don't hold the block either): stay silent
  // and let the requester's retry rotate onward.
  if (blocks.empty()) return;
  ++fetches_served_;
  cb_.send(from, std::make_shared<BlockRespMsg>(msg.hash(), std::move(blocks)));
}

void BlockSynchronizer::handle_response(ProcessId from, const BlockRespMsg& msg) {
  (void)from;  // any peer may answer; the content check is the authority
  const auto it = pending_.find(msg.requested());
  if (it == pending_.end() || msg.blocks().empty()) {
    ++responses_rejected_;  // unsolicited, duplicate, or empty
    return;
  }
  // Structural verification (content addressing does the heavy lifting):
  // blocks[0] must BE the requested block, and each further block must BE
  // the previous one's parent. Block::deserialize recomputed every hash,
  // so a forged body cannot claim a hash it doesn't have.
  if (msg.blocks().front()->hash() != msg.requested()) {
    ++responses_rejected_;
    return;
  }
  std::size_t linked = 1;
  while (linked < msg.blocks().size() &&
         msg.blocks()[linked]->hash() == msg.blocks()[linked - 1]->parent()) {
    ++linked;
  }
  pending_.erase(it);
  LOG_TRACE("p" << self_ << " block-sync accepted " << linked << " block(s) for "
                << msg.requested().hex().substr(0, 8));
  // Deepest first, so by the time the requested block lands the store
  // already holds the segment beneath it and the resumed commit walk
  // crosses it in one go (accept() may re-enter on_missing for the next
  // gap below the segment).
  for (std::size_t i = linked; i-- > 0;) {
    ++blocks_accepted_;
    cb_.accept(*msg.blocks()[i]);
  }
}

void BlockSynchronizer::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kBlockFetch:
      handle_fetch(from, static_cast<const BlockFetchMsg&>(*msg));
      break;
    case kBlockResp:
      handle_response(from, static_cast<const BlockRespMsg&>(*msg));
      break;
    default:
      break;
  }
}

}  // namespace lumiere::sync
