// An ed25519-style signature scheme with real group arithmetic, so
// verification cost is honest.
//
// Construction: Schnorr signatures over the twisted Edwards curve
// -x^2 + y^2 = 1 + d x^2 y^2 (curve25519's Edwards form, the ed25519
// group) with deterministic nonces. It is *ed25519-style*, not RFC 8032
// interoperable: the challenge hash is the in-tree SHA-256 (the build is
// offline and carries no SHA-512), keys derive from the deterministic
// experiment seed, and scalar multiplication is a straightforward
// double-and-add — honest asymptotics and realistic per-verify cost,
// which is exactly what the staged pipeline and the bench knee need.
// Self-consistency (round-trip, tamper rejection, aggregation) is pinned
// by tests/crypto/authenticator_test.cpp.
//
// Quorum certificates use half-aggregation: the tag carries each
// contributor's nonce commitment R_i (32 bytes, sorted by signer id)
// plus the single summed response S = sum S_i mod L, verified in one
// multi-term equation S*B == sum R_i + sum e_i*A_i. The tag is therefore
// 32 + 32m bytes (SigWireSpec{64, 32, 32}) — the honest cost of a
// certificate that does not assume a pairing-based scheme.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/authenticator.h"

namespace lumiere::crypto {

class Ed25519Authenticator final : public Authenticator {
 public:
  /// Derives n keypairs deterministically from `seed`.
  Ed25519Authenticator(std::uint32_t n, std::uint64_t seed);
  ~Ed25519Authenticator() override;

  [[nodiscard]] const char* scheme_name() const noexcept override { return "ed25519"; }
  [[nodiscard]] SigWireSpec wire_spec() const noexcept override { return SigWireSpec{64, 32, 32}; }

 protected:
  [[nodiscard]] SigBytes sign_blob(ProcessId id, const Digest& message) const override;
  [[nodiscard]] bool check_signature(ProcessId id, const Digest& message,
                                     const SigBytes& sig) const override;
  [[nodiscard]] SigBytes aggregate_tag(
      const Digest& message, const std::vector<PartialSig>& sorted_shares) const override;
  [[nodiscard]] bool check_aggregate_tag(const Digest& message,
                                         const ThresholdSig& sig) const override;

 private:
  struct Keys;  // curve types stay out of the public header
  std::unique_ptr<Keys> keys_;
};

}  // namespace lumiere::crypto
