#include "consensus/quorum_cert.h"

#include <algorithm>
#include <bit>

namespace lumiere::consensus {

crypto::Digest QuorumCert::statement(View view, const crypto::Digest& block_hash) {
  // Byte-identical to the ser::Writer encoding this replaced
  // (u32-length-prefixed "lumiere.qc", LE i64 view, raw digest) but built
  // in a stack buffer: this runs once per vote on the leader's hot path
  // and must not allocate.
  constexpr std::string_view kDomain = "lumiere.qc";
  std::array<std::uint8_t, 4 + kDomain.size() + 8 + crypto::Digest::kSize> buf{};
  std::size_t pos = 0;
  const auto le = [&](std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) buf[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  le(kDomain.size(), 4);
  for (const char c : kDomain) buf[pos++] = static_cast<std::uint8_t>(c);
  le(static_cast<std::uint64_t>(view), 8);
  for (const std::uint8_t b : block_hash.bytes()) buf[pos++] = b;
  return crypto::Sha256::hash(std::span<const std::uint8_t>(buf.data(), buf.size()));
}

QuorumCert QuorumCert::genesis(const crypto::Digest& genesis_hash) {
  QuorumCert qc;
  qc.view_ = -1;
  qc.block_hash_ = genesis_hash;
  return qc;
}

bool QuorumCert::verify(crypto::AuthView auth, const ProtocolParams& params,
                        QcVerifyCache* cache) const {
  if (is_genesis()) return true;
  crypto::Digest key;
  if (cache != nullptr) {
    key = cache->fingerprint(*this);
    if (cache->known_good(key)) return true;
  }
  if (!auth.verify_aggregate(statement(view_, block_hash_), sig_, params.quorum())) return false;
  if (cache != nullptr) cache->remember(key);
  return true;
}

void QuorumCert::serialize(ser::Writer& w) const {
  w.view(view_);
  w.digest(block_hash_);
  if (!is_genesis()) w.threshold_sig(sig_);
}

std::optional<QuorumCert> QuorumCert::deserialize(ser::Reader& r) {
  QuorumCert qc;
  if (!r.view(qc.view_)) return std::nullopt;
  if (!r.digest(qc.block_hash_)) return std::nullopt;
  if (!qc.is_genesis() && !r.threshold_sig(qc.sig_)) return std::nullopt;
  return qc;
}

FingerprintMemo::FingerprintMemo(std::size_t max_slots)
    : max_slots_(std::bit_ceil(std::max<std::size_t>(1, (max_slots + kWays - 1) / kWays)) *
                 kWays),
      slots_(std::min(max_slots_, kInitialSlots)),
      set_mask_(slots_.size() / kWays - 1) {}

bool FingerprintMemo::known_good(const crypto::Digest& key) const {
  const crypto::Digest* set = slots_.data() + set_of(key);
  return std::find(set, set + kWays, key) != set + kWays;
}

void FingerprintMemo::remember(const crypto::Digest& key) {
  if (known_good(key)) return;
  // A doubling may leave the whole set on the key's side: grow again.
  while (slots_.size() < max_slots_ && !slots_[set_of(key) + kWays - 1].is_zero()) grow();
  place(key);
}

void FingerprintMemo::place(const crypto::Digest& key) {
  crypto::Digest* set = slots_.data() + set_of(key);
  std::copy_backward(set, set + kWays - 1, set + kWays);
  set[0] = key;
}

void FingerprintMemo::grow() {
  std::vector<crypto::Digest> old(2 * slots_.size());
  old.swap(slots_);
  set_mask_ = 2 * set_mask_ + 1;
  // Oldest way first, so each key lands behind the newer ones of its set.
  for (std::size_t way = kWays; way-- > 0;) {
    for (std::size_t first = 0; first < old.size(); first += kWays) {
      if (!old[first + way].is_zero()) place(old[first + way]);
    }
  }
}

}  // namespace lumiere::consensus
