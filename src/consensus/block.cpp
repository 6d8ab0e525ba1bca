#include "consensus/block.h"

#include <array>
#include <span>
#include <string_view>

namespace lumiere::consensus {

namespace {

/// Feeds a hash the bytes ser::Writer would encode the same fields as
/// (little-endian integers, u32-length-prefixed byte strings), without
/// building that encoding in memory.
class HashWriter {
 public:
  void view(View v) { le(static_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    le(static_cast<std::uint32_t>(data.size()));
    h_.update(data);
  }
  void str(std::string_view s) {
    bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                        s.size()));
  }
  void digest(const crypto::Digest& d) { h_.update(d.bytes()); }
  [[nodiscard]] crypto::Digest finish() { return h_.finish(); }

 private:
  template <typename T>
  void le(T v) {
    std::array<std::uint8_t, sizeof(T)> out{};
    for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h_.update(out);
  }

  crypto::Sha256 h_;
};

}  // namespace

Block::Block(crypto::Digest parent, View view, std::vector<std::uint8_t> payload,
             QuorumCert justify)
    : parent_(parent), view_(view), payload_(std::move(payload)), justify_(std::move(justify)) {
  compute_hash();
}

void Block::compute_hash() {
  HashWriter w;
  w.str("lumiere.block");
  w.digest(parent_);
  w.view(view_);
  w.bytes(std::span<const std::uint8_t>(payload_.data(), payload_.size()));
  w.view(justify_.view());
  w.digest(justify_.block_hash());
  hash_ = w.finish();
}

const Block& Block::genesis() {
  // Shared like every other block: each BlockStore holds this allocation.
  static const std::shared_ptr<const Block> g = [] {
    Block b;
    b.parent_ = crypto::Digest{};
    b.view_ = -1;
    b.justify_ = QuorumCert();  // overwritten below to self-certify
    b.compute_hash();
    std::shared_ptr<Block> with_qc(new Block());
    with_qc->parent_ = b.parent_;
    with_qc->view_ = b.view_;
    with_qc->justify_ = QuorumCert::genesis(b.hash());
    with_qc->hash_ = b.hash();  // genesis identity excludes its own QC
    return std::shared_ptr<const Block>(std::move(with_qc));
  }();
  return *g;
}

void Block::serialize(ser::Writer& w) const {
  w.digest(parent_);
  w.view(view_);
  w.bytes(std::span<const std::uint8_t>(payload_.data(), payload_.size()));
  justify_.serialize(w);
}

std::shared_ptr<const Block> Block::deserialize(ser::Reader& r) {
  crypto::Digest parent;
  View view = -1;
  std::vector<std::uint8_t> payload;
  if (!r.digest(parent) || !r.view(view) || !r.bytes(payload)) return nullptr;
  auto justify = QuorumCert::deserialize(r);
  if (!justify) return nullptr;
  // The constructor recomputes the hash from the received fields.
  return std::make_shared<const Block>(parent, view, std::move(payload), std::move(*justify));
}

BlockStore::BlockStore() { insert(Block::genesis().shared_from_this()); }

std::shared_ptr<const Block> BlockStore::insert(std::shared_ptr<const Block> block) {
  const Held held{block->view(), block->hash()};
  const auto [it, inserted] = blocks_.try_emplace(held.hash, std::move(block));
  if (inserted) held_.push_back(held);
  return it->second;
}

void BlockStore::prune_through(View horizon, const crypto::Digest& keep) {
  std::erase_if(held_, [&](const Held& held) {
    if (held.view > horizon || held.hash == keep) return false;
    blocks_.erase(held.hash);
    return true;
  });
}

std::shared_ptr<const Block> BlockStore::get(const crypto::Digest& hash) const {
  const auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : it->second;
}

bool BlockStore::contains(const crypto::Digest& hash) const {
  return blocks_.find(hash) != blocks_.end();
}

std::shared_ptr<const Block> BlockStore::ancestor(const crypto::Digest& hash,
                                                  std::uint32_t steps) const {
  auto current = get(hash);
  for (std::uint32_t i = 0; i < steps && current != nullptr; ++i) {
    current = get(current->parent());
  }
  return current;
}

bool BlockStore::extends(const crypto::Digest& descendant, const crypto::Digest& ancestor) const {
  auto current = get(descendant);
  while (current != nullptr) {
    if (current->hash() == ancestor) return true;
    if (current->view() <= Block::genesis().view()) break;
    current = get(current->parent());
  }
  return current != nullptr && current->hash() == ancestor;
}

}  // namespace lumiere::consensus
