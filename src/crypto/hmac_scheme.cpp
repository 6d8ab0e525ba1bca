#include "crypto/hmac_scheme.h"

#include <algorithm>

#include "common/rng.h"

namespace lumiere::crypto {

HmacAuthenticator::HmacAuthenticator(std::uint32_t n, std::uint64_t seed) : Authenticator(n) {
  keys_.reserve(n);
  Rng rng(seed ^ 0x9d2c5680cafef00dULL);
  for (std::uint32_t i = 0; i < n; ++i) {
    SecretKey key{};
    for (std::size_t w = 0; w < key.size(); w += 8) {
      const std::uint64_t word = rng.next();
      for (std::size_t b = 0; b < 8; ++b) {
        key[w + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    keys_.emplace_back(key);
  }
}

Digest HmacAuthenticator::mac_for(ProcessId id, const Digest& message) const {
  LUMIERE_ASSERT(id < n());
  return keys_[id].mac(message.as_span());
}

SigBytes HmacAuthenticator::sign_blob(ProcessId id, const Digest& message) const {
  return SigBytes(mac_for(id, message).as_span());
}

bool HmacAuthenticator::check_signature(ProcessId id, const Digest& message,
                                        const SigBytes& sig) const {
  const Digest mac = mac_for(id, message);
  return sig.size() == Digest::kSize && sig == SigBytes(mac.as_span());
}

namespace {

/// The tag hasher after the prefix: "lumiere.agg" || message.
Sha256 tag_hasher(const Digest& message) {
  Sha256 h;
  h.update("lumiere.agg");
  h.update(message.as_span());
  return h;
}

/// Absorbs one share: little-endian signer id || share MAC.
void absorb_share(Sha256& h, ProcessId signer, std::span<const std::uint8_t> mac) {
  const std::uint8_t id_bytes[4] = {
      static_cast<std::uint8_t>(signer),
      static_cast<std::uint8_t>(signer >> 8),
      static_cast<std::uint8_t>(signer >> 16),
      static_cast<std::uint8_t>(signer >> 24),
  };
  h.update(std::span<const std::uint8_t>(id_bytes, 4));
  h.update(mac);
}

}  // namespace

/// Aggregation tag: binds the message, the ordered signer set, and the
/// ordered share MACs. Byte-identical to the pre-redesign construction
/// (the goldens pin it).
SigBytes HmacAuthenticator::aggregate_tag(const Digest& message,
                                          const std::vector<PartialSig>& sorted_shares) const {
  Sha256 h = tag_hasher(message);
  for (const auto& share : sorted_shares) absorb_share(h, share.signer, share.sig.span());
  return SigBytes(h.finish().as_span());
}

/// Recomputes every signer's MAC and streams it into the tag hasher in
/// signer order: the same bytes aggregate_tag() hashes, with no share
/// list built on the way.
bool HmacAuthenticator::check_aggregate_tag(const ThresholdSig& sig) const {
  const Digest statement = share_statement(sig.message);
  Sha256 h = tag_hasher(sig.message);
  sig.signers.for_each(
      [&](ProcessId id) { absorb_share(h, id, mac_for(id, statement).as_span()); });
  const Digest tag = h.finish();
  return std::ranges::equal(sig.tag.span(), tag.as_span());
}

}  // namespace lumiere::crypto
