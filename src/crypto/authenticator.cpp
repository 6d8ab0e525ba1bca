#include "crypto/authenticator.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/ed25519.h"
#include "crypto/hmac_scheme.h"

namespace lumiere::crypto {

Digest share_statement(const Digest& message) {
  Sha256 h;
  h.update("lumiere.ts");
  h.update(message.as_span());
  return h.finish();
}

Signature Signer::sign(const Digest& message) const {
  if (ops_ != nullptr) ops_->count_sign();
  return Signature{id_, auth_->sign_blob(id_, message)};
}

PartialSig Signer::share(const Digest& message) const {
  if (ops_ != nullptr) ops_->count_share();
  return PartialSig{id_, auth_->sign_blob(id_, share_statement(message))};
}

PartialSig threshold_share(const Signer& signer, const Digest& message) {
  return signer.share(message);
}

bool Authenticator::verify(const Digest& message, const Signature& sig) const {
  if (sig.signer >= n_) return false;
  return check_signature(sig.signer, message, sig.sig);
}

bool Authenticator::check_share(const Digest& message, const PartialSig& share) const {
  if (share.signer >= n_) return false;
  return check_signature(share.signer, share_statement(message), share.sig);
}

bool Authenticator::check_aggregate(const Digest& message, const ThresholdSig& sig) const {
  if (sig.signers.universe_size() != n_) return false;
  if (sig.signers.count() == 0) return false;
  return check_aggregate_tag(message, sig);
}

namespace {

void update_u32(Sha256& h, std::uint32_t v) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(v),
      static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 24),
  };
  h.update(std::span<const std::uint8_t>(bytes, 4));
}

}  // namespace

Digest share_fingerprint(const Digest& message, const PartialSig& share) {
  Sha256 h;
  h.update("lumiere.memo.share");
  h.update(message.as_span());
  update_u32(h, share.signer);
  h.update(share.sig.span());
  return h.finish();
}

Digest aggregate_fingerprint(const Digest& message, const ThresholdSig& sig) {
  Sha256 h;
  h.update("lumiere.memo.agg");
  h.update(message.as_span());
  update_u32(h, sig.signers.universe_size());
  sig.signers.for_each([&h](ProcessId id) { update_u32(h, id); });
  h.update(sig.tag.span());
  return h.finish();
}

bool AuthView::verify_share(const Digest& message, const PartialSig& share) const {
  // Counted before the memo lookup: the count is semantic (one protocol
  // verification), identical whether the pipeline pre-answered it or not.
  if (ops_ != nullptr) ops_->count_share_verify();
  if (memo_ != nullptr && memo_->contains(share_fingerprint(message, share))) return true;
  return auth_->check_share(message, share);
}

bool AuthView::verify_aggregate(const Digest& message, const ThresholdSig& sig,
                                std::uint32_t min_signers) const {
  if (ops_ != nullptr) ops_->count_aggregate_verify();
  if (sig.signers.count() < min_signers) return false;
  if (sig.signers.universe_size() != auth_->n()) return false;
  if (memo_ != nullptr && memo_->contains(aggregate_fingerprint(message, sig))) return true;
  return auth_->check_aggregate(message, sig);
}

QuorumAggregator::QuorumAggregator(AuthView auth, Digest message, std::uint32_t m)
    : auth_(auth), message_(message), m_(m), signers_(auth.n()) {
  LUMIERE_ASSERT(auth_.scheme() != nullptr);
  LUMIERE_ASSERT(m >= 1 && m <= auth_.n());
}

bool QuorumAggregator::add(const PartialSig& share) {
  if (share.signer >= signers_.universe_size()) return false;
  if (signers_.contains(share.signer)) return false;
  if (!auth_.verify_share(message_, share)) return false;
  signers_.add(share.signer);
  const auto pos = std::lower_bound(
      shares_.begin(), shares_.end(), share,
      [](const PartialSig& a, const PartialSig& b) { return a.signer < b.signer; });
  shares_.insert(pos, share);
  return true;
}

ThresholdSig QuorumAggregator::aggregate() const {
  LUMIERE_ASSERT_MSG(complete(), "aggregate() before threshold reached");
  if (auth_.op_counters() != nullptr) auth_.op_counters()->count_aggregate_built();
  return ThresholdSig{signers_, auth_.scheme()->aggregate_tag(message_, shares_)};
}

std::unique_ptr<Authenticator> make_authenticator(const std::string& scheme, std::uint32_t n,
                                                  std::uint64_t seed) {
  if (scheme == "hmac") return std::make_unique<HmacAuthenticator>(n, seed);
  if (scheme == "ed25519") return std::make_unique<Ed25519Authenticator>(n, seed);
  std::string message = "unknown authenticator scheme \"" + scheme + "\"; registered:";
  for (const std::string& name : scheme_names()) message += " " + name;
  throw std::invalid_argument(message);
}

bool has_scheme(const std::string& scheme) {
  return scheme == "hmac" || scheme == "ed25519";
}

std::vector<std::string> scheme_names() { return {"ed25519", "hmac"}; }

}  // namespace lumiere::crypto
