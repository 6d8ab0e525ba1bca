// HMAC-SHA256 (RFC 2104).
//
// Used as the MAC underlying the default "hmac" authenticator scheme: the
// paper assumes perfect signatures, and in a closed simulation a keyed MAC
// whose key is held by the trusted key registry gives exactly that
// (unforgeable by any process that does not hold the key). Verified
// against RFC 4231 vectors.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/sha256.h"

namespace lumiere::crypto {

/// A 32-byte symmetric key.
using SecretKey = std::array<std::uint8_t, 32>;

/// HMAC-SHA256 under one fixed key. The key's ipad and opad blocks are
/// absorbed once at construction (the RFC 2104 section 4
/// precomputation), so each mac() resumes from the two saved hash
/// states: a message of up to 55 bytes then costs two compressions
/// instead of four. Immutable after construction; safe to share.
class HmacKey {
 public:
  /// Keys longer than the 64-byte block are hashed first (RFC 2104).
  explicit HmacKey(std::span<const std::uint8_t> key) noexcept;
  explicit HmacKey(const SecretKey& key) noexcept
      : HmacKey(std::span<const std::uint8_t>(key.data(), key.size())) {}

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const noexcept;

 private:
  Sha256 inner_;  ///< state after absorbing key ^ ipad
  Sha256 outer_;  ///< state after absorbing key ^ opad
};

/// One-shot HMAC-SHA256 (builds an HmacKey and uses it once).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message) noexcept;

[[nodiscard]] inline Digest hmac_sha256(const SecretKey& key,
                                        std::span<const std::uint8_t> message) noexcept {
  return hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()), message);
}

[[nodiscard]] inline Digest hmac_sha256(const SecretKey& key, std::string_view message) noexcept {
  return hmac_sha256(key, std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(message.data()),
                              message.size()));
}

}  // namespace lumiere::crypto
