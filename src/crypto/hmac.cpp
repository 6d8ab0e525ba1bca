#include "crypto/hmac.h"

#include <cstring>

namespace lumiere::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) noexcept {
  constexpr std::size_t kBlock = 64;
  std::uint8_t key_block[kBlock] = {};
  if (key.size() > kBlock) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(key_block, kd.bytes().data(), Digest::kSize);
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }

  std::uint8_t ipad[kBlock];
  std::uint8_t opad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }
  inner_.update(std::span<const std::uint8_t>(ipad, kBlock));
  outer_.update(std::span<const std::uint8_t>(opad, kBlock));
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const noexcept {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest.as_span());
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) noexcept {
  return HmacKey(key).mac(message);
}

}  // namespace lumiere::crypto
