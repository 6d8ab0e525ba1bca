// Wire messages of the block-sync/state-transfer subsystem (0x5000
// range).
//
// A replica whose commit walk hits a missing ancestor that will never
// arrive on its own — an equivocation victim holding the losing variant,
// or a restarted process wanting its pre-crash history — asks a peer for
// the block by hash (BlockFetchMsg) and gets back a parent-linked chain
// segment (BlockRespMsg). Neither message carries signatures: blocks are
// content-addressed (Block::deserialize recomputes the hash), so the
// requester verifies a response purely structurally — the first block
// must hash to the requested digest and each further block must hash to
// its predecessor's parent. A forged or unlinked response fails that
// check by construction; see sync/block_sync.h.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "consensus/block.h"
#include "ser/message.h"

namespace lumiere::sync {

/// Message type tags (0x5000 range — see Message::type_id()).
enum MsgType : std::uint32_t {
  kBlockFetch = 0x5001,
  kBlockResp = 0x5002,
};

/// "Send me the block with this hash (and up to max_blocks - 1 of its
/// ancestors, deepest last)."
class BlockFetchMsg final : public Message {
 public:
  BlockFetchMsg(crypto::Digest hash, std::uint32_t max_blocks)
      : hash_(hash), max_blocks_(max_blocks) {}

  [[nodiscard]] const crypto::Digest& hash() const noexcept { return hash_; }
  [[nodiscard]] std::uint32_t max_blocks() const noexcept { return max_blocks_; }

  std::uint32_t type_id() const override { return kBlockFetch; }
  const char* type_name() const override { return "block-fetch"; }
  MsgClass msg_class() const override { return MsgClass::kSync; }
  std::size_t wire_size() const override { return crypto::Digest::kSize + 4; }
  void serialize(ser::Writer& w) const override {
    w.digest(hash_);
    w.u32(max_blocks_);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    crypto::Digest hash;
    std::uint32_t max_blocks = 0;
    if (!r.digest(hash) || !r.u32(max_blocks)) return nullptr;
    return std::make_shared<BlockFetchMsg>(hash, max_blocks);
  }

 private:
  crypto::Digest hash_;
  std::uint32_t max_blocks_ = 0;
};

/// A chain segment answering a fetch: blocks[0] is the requested block,
/// blocks[i+1] its parent, and so on toward genesis. May be empty when
/// the responder does not hold the requested block. The responder puts
/// its stored pointers here, so on the simulator the requester stores the
/// responder's allocations.
class BlockRespMsg final : public Message {
 public:
  using Blocks = std::vector<std::shared_ptr<const consensus::Block>>;

  BlockRespMsg(crypto::Digest requested, Blocks blocks)
      : requested_(requested), blocks_(std::move(blocks)) {}

  [[nodiscard]] const crypto::Digest& requested() const noexcept { return requested_; }
  [[nodiscard]] const Blocks& blocks() const noexcept { return blocks_; }

  std::uint32_t type_id() const override { return kBlockResp; }
  const char* type_name() const override { return "block-resp"; }
  MsgClass msg_class() const override { return MsgClass::kSync; }
  std::size_t wire_size() const override {
    // Requested digest + per-block the same O(kappa) model as ProposalMsg:
    // view + payload + justify QC envelope.
    std::size_t size = crypto::Digest::kSize;
    for (const auto& block : blocks_) {
      size += 8 + block->payload().size() + block->justify().sig().wire_size();
    }
    return size;
  }
  void serialize(ser::Writer& w) const override {
    w.digest(requested_);
    w.u32(static_cast<std::uint32_t>(blocks_.size()));
    for (const auto& block : blocks_) block->serialize(w);
  }
  void collect_auth(AuthClaimSink& sink) const override {
    for (const auto& block : blocks_) block->justify().collect_auth(sink);
  }
  static MessagePtr deserialize(ser::Reader& r) {
    crypto::Digest requested;
    std::uint32_t count = 0;
    if (!r.digest(requested) || !r.u32(count)) return nullptr;
    // A count bound keeps a malformed frame from forcing a giant
    // allocation before the per-block deserialization fails anyway.
    if (count > kMaxBlocksPerResponse) return nullptr;
    Blocks blocks;
    blocks.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      auto block = consensus::Block::deserialize(r);
      if (!block) return nullptr;
      blocks.push_back(std::move(block));
    }
    return std::make_shared<BlockRespMsg>(requested, std::move(blocks));
  }

  /// Upper bound on blocks per response, enforced on both sides.
  static constexpr std::uint32_t kMaxBlocksPerResponse = 64;

 private:
  crypto::Digest requested_;
  Blocks blocks_;
};

/// Registers all block-sync message types with a codec (for the TCP
/// transport).
inline void register_sync_messages(MessageCodec& codec) {
  codec.register_type(kBlockFetch, &BlockFetchMsg::deserialize);
  codec.register_type(kBlockResp, &BlockRespMsg::deserialize);
}

}  // namespace lumiere::sync
