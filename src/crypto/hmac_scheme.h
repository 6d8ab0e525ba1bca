// The default simulation scheme: HMAC-SHA256 under per-process keys
// held by the trusted harness.
//
// The paper (Section 2) assumes *perfect* cryptography; in a closed
// simulation a keyed MAC whose key is held by the trusted Authenticator
// gives exactly that (unforgeable by any process that does not hold the
// key) and keeps deterministic experiments fast. It is not free: a share
// check is one HMAC (two SHA-256 compressions with the precomputed key
// states) and an aggregate check recomputes one MAC per signer, so at
// n = 31 verifying a QC costs 21 MACs plus the tag hash.
// Aggregates are modeled as the signer bitmap plus a SHA-256 tag binding
// the ordered share MACs; the modeled wire size stays the paper's
// O(kappa). Every golden digest in the test suite pins this scheme's
// bytes, so its key derivation and tag construction must never change.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/authenticator.h"
#include "crypto/hmac.h"

namespace lumiere::crypto {

class HmacAuthenticator final : public Authenticator {
 public:
  /// Generates n independent keys deterministically from `seed`.
  HmacAuthenticator(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] const char* scheme_name() const noexcept override { return "hmac"; }
  [[nodiscard]] SigWireSpec wire_spec() const noexcept override {
    return SigWireSpec{static_cast<std::uint32_t>(kKappaBytes),
                       static_cast<std::uint32_t>(kKappaBytes), 0};
  }

 protected:
  [[nodiscard]] SigBytes sign_blob(ProcessId id, const Digest& message) const override;
  [[nodiscard]] bool check_signature(ProcessId id, const Digest& message,
                                     const SigBytes& sig) const override;
  [[nodiscard]] SigBytes aggregate_tag(
      const Digest& message, const std::vector<PartialSig>& sorted_shares) const override;
  [[nodiscard]] bool check_aggregate_tag(const ThresholdSig& sig) const override;

 private:
  [[nodiscard]] Digest mac_for(ProcessId id, const Digest& message) const;

  /// One precomputed HMAC key state per process.
  std::vector<HmacKey> keys_;
};

}  // namespace lumiere::crypto
