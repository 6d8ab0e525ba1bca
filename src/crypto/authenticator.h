// The pluggable authenticator suite (Section 2's "signatures and
// threshold signatures", made scheme-agnostic).
//
// The paper assumes perfect signatures of O(kappa) bytes and m-of-n
// threshold certificates that verify in one step. This header is the one
// seam through which the rest of the library touches cryptography:
//
//   * `Authenticator` — a per-cluster scheme instance (key registry +
//     sign/verify/aggregate primitives). Two schemes are in-tree: the
//     HMAC scheme the deterministic simulator defaults to (cheap, but a
//     QC check still recomputes one MAC per signer), and
//     an ed25519-style scheme with real group arithmetic whose verify
//     cost is honest (see crypto/ed25519.h). Schemes are selected by
//     registry name via make_authenticator(); nothing outside src/crypto/
//     names a concrete scheme.
//   * `Signer` — the signing capability for exactly one process id,
//     handed out by the Authenticator. Possession of a Signer is what it
//     means to "be" that process: Byzantine processes may sign arbitrary
//     content but can never forge an honest process's signature.
//   * `QuorumAggregator` — collects verified shares for one statement
//     until a threshold m is reached and emits the scheme's aggregate.
//   * `AuthView` — the per-node verification facade: scheme plus an
//     optional `VerifyMemo` of signatures a pipeline worker pool already
//     checked off-thread (runtime/pipeline.h), so the single-threaded
//     consensus core skips re-verification without changing its
//     accept/reject semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/assert.h"
#include "common/signer_set.h"
#include "common/types.h"
#include "crypto/auth_counters.h"
#include "crypto/sha256.h"
#include "crypto/sig_bytes.h"
#include "crypto/sig_wire.h"

namespace lumiere::crypto {

/// A signature by one process over a message digest. The blob length is
/// scheme-reported (SigWireSpec::sig_bytes); wire_size() is therefore an
/// instance property now, not a constant.
struct Signature {
  ProcessId signer = kNoProcess;
  SigBytes sig;

  bool operator==(const Signature&) const = default;

  /// Modeled wire size: the scheme's blob plus the 4-byte signer id.
  [[nodiscard]] std::size_t wire_size() const noexcept { return sig.size() + 4; }
};

/// A share contributed by one signer toward a threshold aggregate.
/// Identical wire shape to Signature; separate type so call sites cannot
/// confuse a share with a standalone signature.
struct PartialSig {
  ProcessId signer = kNoProcess;
  SigBytes sig;

  bool operator==(const PartialSig&) const = default;
  [[nodiscard]] std::size_t wire_size() const noexcept { return sig.size() + 4; }
};

/// An aggregated m-of-n threshold signature over one message digest. The
/// default tag is kappa zero bytes so a default-constructed (genesis)
/// aggregate serializes identically under every scheme.
struct ThresholdSig {
  Digest message;     ///< digest of the signed statement
  SignerSet signers;  ///< which processes contributed
  SigBytes tag = SigBytes::zeros(kKappaBytes);  ///< scheme aggregation tag

  bool operator==(const ThresholdSig&) const = default;

  /// Modeled wire size: the statement digest plus the scheme tag. For the
  /// HMAC sim scheme this is the paper's 2*kappa; schemes with
  /// half-aggregation grow linearly in the signer count.
  [[nodiscard]] std::size_t wire_size() const noexcept { return kKappaBytes + tag.size(); }

  [[nodiscard]] std::uint32_t signer_count() const noexcept { return signers.count(); }
};

/// Domain separation: threshold shares sign H("lumiere.ts" || message) so
/// a share can never be replayed as a standalone signature or vice versa.
/// Shared by every scheme (the statement is hashed before the scheme sees
/// it, so aggregation stays scheme-agnostic).
[[nodiscard]] Digest share_statement(const Digest& message);

class Authenticator;

/// A signing capability for exactly one process id.
class Signer {
 public:
  [[nodiscard]] ProcessId id() const noexcept { return id_; }

  /// Signs a message digest.
  [[nodiscard]] Signature sign(const Digest& message) const;

  /// Produces this signer's share toward an aggregate over `message`.
  [[nodiscard]] PartialSig share(const Digest& message) const;

  /// Attaches an op counter (observability). Copies of the signer made
  /// after this call inherit the pointer, which is how the counters reach
  /// the pacemaker/core without those layers knowing about them.
  void set_op_counters(AuthOpCounters* ops) noexcept { ops_ = ops; }

 private:
  friend class Authenticator;
  Signer(const Authenticator* auth, ProcessId id) noexcept : auth_(auth), id_(id) {}

  const Authenticator* auth_;
  ProcessId id_;
  AuthOpCounters* ops_ = nullptr;
};

/// Produces a share for `signer` over `message` (= signer.share).
[[nodiscard]] PartialSig threshold_share(const Signer& signer, const Digest& message);

/// A per-cluster authenticator scheme: the trusted key registry plus the
/// scheme's sign/verify/aggregate primitives. Instances are immutable
/// after construction and safe to share across threads.
class Authenticator {
 public:
  virtual ~Authenticator() = default;

  Authenticator(const Authenticator&) = delete;
  Authenticator& operator=(const Authenticator&) = delete;

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

  /// The registry name of this scheme (e.g. for bench labels).
  [[nodiscard]] virtual const char* scheme_name() const noexcept = 0;

  /// The wire geometry deserializers need (ser/serializer.h).
  [[nodiscard]] virtual SigWireSpec wire_spec() const noexcept = 0;

  /// Returns the signing capability for process `id`. The harness calls
  /// this once per process at cluster construction.
  [[nodiscard]] Signer signer_for(ProcessId id) const {
    LUMIERE_ASSERT(id < n_);
    return Signer(this, id);
  }

  /// Verifies a standalone signature. Returns false (not an error) on
  /// mismatch: invalid signatures are an expected runtime condition under
  /// Byzantine faults.
  [[nodiscard]] bool verify(const Digest& message, const Signature& sig) const;

  /// Full validity check of one share over `message` (bounds + crypto).
  /// Used directly by pipeline workers; protocol code goes through the
  /// memo-aware AuthView.
  [[nodiscard]] bool check_share(const Digest& message, const PartialSig& share) const;

  /// Full cryptographic validity of an aggregate (universe + tag); the
  /// threshold itself (min signers) is the caller's check.
  [[nodiscard]] bool check_aggregate(const ThresholdSig& sig) const;

 protected:
  explicit Authenticator(std::uint32_t n) : n_(n) { LUMIERE_ASSERT(n >= 1); }

  // -- scheme primitives -------------------------------------------------
  [[nodiscard]] virtual SigBytes sign_blob(ProcessId id, const Digest& message) const = 0;
  [[nodiscard]] virtual bool check_signature(ProcessId id, const Digest& message,
                                             const SigBytes& sig) const = 0;
  /// Builds the aggregate tag from verified shares sorted by signer id.
  [[nodiscard]] virtual SigBytes aggregate_tag(
      const Digest& message, const std::vector<PartialSig>& sorted_shares) const = 0;
  /// Verifies the tag of an aggregate whose universe already matched.
  [[nodiscard]] virtual bool check_aggregate_tag(const ThresholdSig& sig) const = 0;

 private:
  friend class Signer;
  friend class QuorumAggregator;

  std::uint32_t n_;
};

/// Fingerprint of one verified share claim, for the VerifyMemo. Binds the
/// statement, the signer and the signature bytes.
[[nodiscard]] Digest share_fingerprint(const Digest& message, const PartialSig& share);

/// Fingerprint of one verified aggregate claim.
[[nodiscard]] Digest aggregate_fingerprint(const ThresholdSig& sig);

/// Signatures a pipeline worker pool already verified for one node.
///
/// Single-writer: only the node's driver thread inserts (after popping a
/// worker result from the verified queue) and only that thread's protocol
/// code reads, so no locking is needed. Bounded: when full, the set is
/// cleared — a memo miss only costs a re-verification, never correctness.
class VerifyMemo {
 public:
  explicit VerifyMemo(std::size_t max_entries = 1 << 16) : max_entries_(max_entries) {}

  void remember(const Digest& fingerprint) {
    if (seen_.size() >= max_entries_) seen_.clear();
    seen_.insert(fingerprint);
  }
  [[nodiscard]] bool contains(const Digest& fingerprint) const {
    return seen_.find(fingerprint) != seen_.end();
  }
  [[nodiscard]] std::size_t size() const noexcept { return seen_.size(); }

 private:
  std::size_t max_entries_;
  std::unordered_set<Digest> seen_;
};

/// The per-node verification facade protocol code holds: the cluster's
/// scheme plus (on the TCP pipeline) the node's memo of pre-verified
/// signatures. Copyable value; null memo means every check is done inline.
class AuthView {
 public:
  AuthView() = default;
  explicit AuthView(const Authenticator* auth, const VerifyMemo* memo = nullptr,
                    AuthOpCounters* ops = nullptr) noexcept
      : auth_(auth), memo_(memo), ops_(ops) {}

  [[nodiscard]] const Authenticator* scheme() const noexcept { return auth_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return auth_->n(); }
  [[nodiscard]] SigWireSpec wire_spec() const noexcept { return auth_->wire_spec(); }
  [[nodiscard]] Signer signer_for(ProcessId id) const { return auth_->signer_for(id); }
  explicit operator bool() const noexcept { return auth_ != nullptr; }

  [[nodiscard]] bool verify(const Digest& message, const Signature& sig) const {
    if (ops_ != nullptr) ops_->count_verify();
    return auth_->verify(message, sig);
  }

  /// Share validity, consulting the memo before the scheme.
  [[nodiscard]] bool verify_share(const Digest& message, const PartialSig& share) const;

  /// Aggregate validity: threshold + universe first (always inline —
  /// they are cheap and min_signers is call-site-specific), then memo or
  /// scheme for the cryptographic tag.
  [[nodiscard]] bool verify_aggregate(const ThresholdSig& sig, std::uint32_t min_signers) const;

  /// The attached op counters (null when observability is off).
  [[nodiscard]] AuthOpCounters* op_counters() const noexcept { return ops_; }

 private:
  const Authenticator* auth_ = nullptr;
  const VerifyMemo* memo_ = nullptr;
  AuthOpCounters* ops_ = nullptr;
};

/// Collects shares for one message until a threshold m is reached.
///
/// Duplicate shares from the same signer and shares that fail
/// verification are rejected (returning false), never fatal: Byzantine
/// processes are free to send garbage.
class QuorumAggregator {
 public:
  /// `m` is the threshold (f+1 or 2f+1); the universe is auth.n().
  QuorumAggregator(AuthView auth, Digest message, std::uint32_t m);

  /// Adds a share. Returns true if the share was fresh and valid.
  bool add(const PartialSig& share);

  [[nodiscard]] std::uint32_t count() const noexcept { return signers_.count(); }
  [[nodiscard]] bool complete() const noexcept { return signers_.count() >= m_; }
  [[nodiscard]] const Digest& message() const noexcept { return message_; }

  /// Builds the aggregate once `complete()`. Must not be called before.
  [[nodiscard]] ThresholdSig aggregate() const;

 private:
  AuthView auth_;
  Digest message_;
  std::uint32_t m_;
  SignerSet signers_;
  std::vector<PartialSig> shares_;  // kept sorted by signer id
};

// -- scheme registry -----------------------------------------------------

/// The scheme the deterministic simulator defaults to (all goldens pin
/// its bytes).
inline constexpr const char* kDefaultScheme = "hmac";

/// Builds a scheme instance by registry name; keys derive
/// deterministically from `seed`. Throws std::invalid_argument naming the
/// unknown scheme and listing the registered ones.
[[nodiscard]] std::unique_ptr<Authenticator> make_authenticator(const std::string& scheme,
                                                                std::uint32_t n,
                                                                std::uint64_t seed);

[[nodiscard]] bool has_scheme(const std::string& scheme);

/// Registered scheme names, sorted — stable for parameterized tests and
/// benches (which enumerate schemes instead of naming them).
[[nodiscard]] std::vector<std::string> scheme_names();

}  // namespace lumiere::crypto
