// View-synchronization certificates (VC / EC / wish certificates).
#pragma once

#include <optional>

#include "common/params.h"
#include "crypto/authenticator.h"
#include "ser/serializer.h"

namespace lumiere::pacemaker {

/// The statement signed by a "view v message": just the view number,
/// domain-separated (Section 3.3: "This message is just the value v
/// signed by p").
[[nodiscard]] crypto::Digest view_msg_statement(View v);

/// The statement signed by an "epoch view v message".
[[nodiscard]] crypto::Digest epoch_msg_statement(View v);

/// The statement signed by a relay wish (Cogsworth / NK20).
[[nodiscard]] crypto::Digest wish_statement(View v);

/// A generic certificate: a threshold signature by `threshold` distinct
/// processors over one of the statements above. VC = f+1 view messages;
/// EC = 2f+1 epoch-view messages; Cogsworth's view-change cert = f+1
/// wishes. The accounting charges it O(kappa). The real frame ships the
/// view and the threshold signature but not the statement, which the
/// verifier recomputes from the view with the function of the cert's
/// kind. The frame therefore sits below the model whenever the signer
/// set (varint n + ceil(n/8) bitmap bytes) is shorter than kappa, i.e.
/// for n <= 232 under any scheme.
class SyncCert {
 public:
  SyncCert() = default;
  SyncCert(View view, crypto::ThresholdSig sig) : view_(view), sig_(std::move(sig)) {}

  [[nodiscard]] View view() const noexcept { return view_; }
  [[nodiscard]] const crypto::ThresholdSig& sig() const noexcept { return sig_; }

  /// Verifies signer threshold and statement binding. `statement` must be
  /// the statement function the certificate was built over.
  [[nodiscard]] bool verify(crypto::AuthView auth, std::uint32_t min_signers,
                            crypto::Digest (*statement)(View)) const {
    return auth.verify_aggregate(statement(view_), sig_, min_signers);
  }

  void serialize(ser::Writer& w) const {
    w.view(view_);
    w.threshold_sig(sig_);
  }
  [[nodiscard]] static std::optional<SyncCert> deserialize(ser::Reader& r) {
    SyncCert c;
    if (!r.view(c.view_)) return std::nullopt;
    if (!r.threshold_sig(c.sig_)) return std::nullopt;
    return c;
  }

  bool operator==(const SyncCert&) const = default;

 private:
  View view_ = -1;
  crypto::ThresholdSig sig_;
};

}  // namespace lumiere::pacemaker
