#include "dissem/disseminator.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "dissem/messages.h"

namespace lumiere::dissem {

namespace {

/// Cap on a re-push or re-announce gap, in multiples of kRetryInterval.
/// Bounded rather than open-ended: the proposer a cert first went to may
/// be silent or cut off (on TCP the adapter drops partitioned traffic
/// instead of parking it), so the cert reaches a leader that orders it
/// only through a later re-announce.
constexpr std::int64_t kMaxRetryGapFactor = 4;

}  // namespace

Disseminator::Disseminator(const ProtocolParams& params, crypto::AuthView auth,
                           crypto::Signer signer, DisseminatorCallbacks cb)
    : params_(params),
      auth_(auth),
      signer_(signer),
      cb_(std::move(cb)),
      self_(signer_.id()),
      batches_(params.n) {
  LUMIERE_ASSERT(auth);
  LUMIERE_ASSERT(cb_.send && cb_.broadcast && cb_.schedule && cb_.now && cb_.next_proposer);
  LUMIERE_ASSERT(cb_.lease_batch && cb_.ack_batch && cb_.deliver);
}

void Disseminator::start() {
  if (running_) return;
  running_ = true;
  cb_.schedule(kPushInterval, [this] { push_tick(); });
  cb_.schedule(kRetryInterval, [this] { retry_tick(); });
}

void Disseminator::push_tick() {
  for (std::uint32_t i = 0; i < kMaxBatchesPerTick; ++i) {
    if (pending_.size() >= kMaxUncertified) break;
    std::vector<std::uint8_t> leased;
    const std::uint64_t token = cb_.lease_batch(leased);
    if (token == 0) break;
    auto payload = std::make_shared<const std::vector<std::uint8_t>>(std::move(leased));
    const std::uint64_t seq = ++seq_;
    const BatchId id{self_, seq,
                     crypto::Sha256::hash(
                         std::span<const std::uint8_t>(payload->data(), payload->size()))};
    tokens_.emplace(seq, token);
    const TimePoint now = cb_.now();
    auto [it, inserted] = pending_.emplace(
        seq, PendingCert{id, now,
                         crypto::QuorumAggregator(auth_, batch_statement(id),
                                                  params_.small_quorum()),
                         Backoff{now + kRetryInterval, kRetryInterval}});
    LUMIERE_ASSERT(inserted);
    it->second.agg.add(crypto::threshold_share(signer_, batch_statement(id)));
    ++pushed_;
    batches_.store(id, payload);
    cb_.broadcast(std::make_shared<BatchPushMsg>(id, std::move(payload)));
    maybe_finalize(seq);
  }
  cb_.schedule(kPushInterval, [this] { push_tick(); });
}

bool Disseminator::Backoff::fire(TimePoint now, Duration cap) {
  if (due > now) return false;
  gap = std::min(gap * 2, cap);
  due = now + gap;
  return true;
}

void Disseminator::retry_tick() {
  const TimePoint now = cb_.now();
  const Duration cap = kRetryInterval * kMaxRetryGapFactor;
  // Re-push own batches still short of f+1 acks (pushes lost to drops or
  // a partition), only to the peers whose ack is missing: the others
  // already store the bytes. Acking is idempotent on the receiver side.
  for (auto& [seq, pending] : pending_) {
    if (!pending.repush.fire(now, cap)) continue;
    const BatchBytes* stored = batches_.bytes(pending.id);
    if (stored == nullptr) continue;
    const auto push = std::make_shared<BatchPushMsg>(pending.id, *stored);
    const SignerSet& acked = pending.agg.signers();
    for (ProcessId to = 0; to < params_.n; ++to) {
      if (!acked.contains(to)) cb_.send(to, push);
    }
  }
  // Re-announce own certs nobody ordered yet to whoever proposes next now
  // — the path that brings a healed partition's backlog, or a cert whose
  // first proposer never proposed, back into a leader's certified queue.
  // Each cert backs off on its own schedule; the due ones leave together.
  BatchCertMsg::Certs due;
  for (auto& [id, own] : own_certs_) {
    if (!own.reannounce.fire(now, cap)) continue;
    due.push_back(own.cert);
    if (due.size() == BatchCertMsg::kMaxCerts) announce(std::exchange(due, {}));
  }
  if (!due.empty()) announce(std::move(due));
  // Re-fetch committed-but-missing payloads from their cert signers.
  for (const auto& [id, cert] : unresolved_) send_fetches(cert);
  cb_.schedule(kRetryInterval, [this] { retry_tick(); });
}

void Disseminator::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->type_id()) {
    case kBatchPush:
      handle_push(from, static_cast<const BatchPushMsg&>(*msg));
      break;
    case kBatchAck:
      handle_ack(static_cast<const BatchAckMsg&>(*msg));
      break;
    case kBatchCertAnnounce:
      handle_cert(static_cast<const BatchCertMsg&>(*msg));
      break;
    case kBatchFetch:
      handle_fetch(from, static_cast<const BatchFetchMsg&>(*msg));
      break;
    default:
      break;
  }
}

void Disseminator::handle_push(ProcessId /*from*/, const BatchPushMsg& msg) {
  const BatchId& id = msg.id();
  // The digest in the id must bind the bytes, or an ack here would help
  // certify a batch whose content this node cannot actually serve.
  if (crypto::Sha256::hash(std::span<const std::uint8_t>(msg.payload().data(),
                                                         msg.payload().size())) != id.digest) {
    return;
  }
  batches_.store(id, msg.shared_payload());
  if (id.origin != self_ && id.origin < params_.n) {
    cb_.send(id.origin,
             std::make_shared<BatchAckMsg>(id, crypto::threshold_share(signer_,
                                                                       batch_statement(id))));
  }
  const auto missing = unresolved_.find(id);
  if (missing != unresolved_.end()) {
    unresolved_.erase(missing);
    deliver_one(id, msg.payload());
  }
}

void Disseminator::handle_ack(const BatchAckMsg& msg) {
  if (msg.id().origin != self_) return;
  const auto it = pending_.find(msg.id().seq);
  if (it == pending_.end() || it->second.id != msg.id()) return;
  if (!it->second.agg.add(msg.share())) return;
  maybe_finalize(msg.id().seq);
}

void Disseminator::maybe_finalize(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end() || !it->second.agg.complete()) return;
  BatchCert cert(it->second.id, it->second.agg.aggregate());
  const TimePoint now = cb_.now();
  if (cb_.on_batch_certified) cb_.on_batch_certified(now, now - it->second.pushed_at);
  pending_.erase(it);
  ++certified_;
  own_certs_.emplace(cert.id(),
                     OwnCert{cert, Backoff{now + kRetryInterval, kRetryInterval}});
  announce({cert});
  accept_cert(cert);
}

void Disseminator::announce(BatchCertMsg::Certs certs) {
  // Only a proposer orders a cert; every other replica first sees it in
  // that proposal. This node's own queue already holds its certs.
  const ProcessId to = cb_.next_proposer();
  if (to != self_) cb_.send(to, std::make_shared<BatchCertMsg>(std::move(certs)));
}

void Disseminator::handle_cert(const BatchCertMsg& msg) {
  for (const BatchCert& cert : msg.certs()) {
    if (verify_cert_cached(cert)) accept_cert(cert);
  }
}

void Disseminator::handle_fetch(ProcessId from, const BatchFetchMsg& msg) {
  if (from >= params_.n || from == self_) return;
  const BatchBytes* stored = batches_.bytes(msg.id());
  if (stored == nullptr) return;
  ++fetches_served_;
  cb_.send(from, std::make_shared<BatchPushMsg>(msg.id(), *stored));
}

void Disseminator::accept_cert(const BatchCert& cert) {
  const BatchId& id = cert.id();
  if (batches_.ordered(id) || queued_.contains(id)) return;
  queue_.push_back(cert);
  queued_.insert(id);
}

bool Disseminator::verify_cert_cached(const BatchCert& cert) {
  ser::Writer w(std::move(scratch_));
  cert.serialize(w);
  scratch_ = std::move(w).take();
  const crypto::Digest key =
      crypto::Sha256::hash(std::span<const std::uint8_t>(scratch_.data(), scratch_.size()));
  if (verified_certs_.known_good(key)) return true;
  if (!cert.verify(auth_, params_)) return false;
  verified_certs_.remember(key);
  return true;
}

std::vector<std::uint8_t> Disseminator::make_proposal_payload(View /*v*/) {
  std::vector<BatchCert> refs;
  while (refs.size() < kMaxRefsPerProposal && !queue_.empty()) {
    BatchCert cert = std::move(queue_.front());
    queue_.pop_front();
    if (queued_.erase(cert.id()) == 0) continue;  // stale copy, superseded
    schedule_reinsert(cert);
    refs.push_back(std::move(cert));
  }
  if (refs.empty()) return {};
  return encode_refs(refs);
}

bool Disseminator::refs_payload_ok(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return true;
  const auto refs = decode_refs(payload, auth_.wire_spec());
  if (!refs) return false;
  for (const BatchCert& cert : *refs) {
    if (!verify_cert_cached(cert)) return false;
  }
  return true;
}

void Disseminator::on_refs_proposed(std::span<const std::uint8_t> payload) {
  if (payload.empty() || !is_refs_payload(payload)) return;
  const auto refs = decode_refs(payload, auth_.wire_spec());
  if (!refs) return;
  for (const BatchCert& cert : *refs) {
    // Withhold only references this node itself had queued (and hence
    // verified); an unknown cert in a Byzantine proposal must not enter
    // the reinsert path unvetted.
    if (queued_.erase(cert.id()) == 0) continue;
    schedule_reinsert(cert);
  }
}

void Disseminator::schedule_reinsert(const BatchCert& cert) {
  cb_.schedule(kReinsertTimeout, [this, cert] {
    const BatchId& id = cert.id();
    if (batches_.ordered(id) || queued_.contains(id)) return;
    queue_.push_back(cert);
    queued_.insert(id);
    ++reinserted_;
  });
}

void Disseminator::on_committed_payload(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return;
  const auto refs = decode_refs(payload, auth_.wire_spec());
  if (!refs) return;
  for (const BatchCert& cert : *refs) {
    const BatchId& id = cert.id();
    own_certs_.erase(id);
    // A reference can legitimately commit twice (reinsert + pipelined
    // chains); deliver the batch exactly once, on its first commit.
    BatchLanes::Record& batch = batches_.record(id);
    if (std::exchange(batch.ordered, true)) continue;
    queued_.erase(id);
    if (batch.bytes) {
      deliver_one(id, *batch.bytes);
    } else {
      unresolved_.emplace(id, cert);
      send_fetches(cert);
    }
  }
}

void Disseminator::deliver_one(const BatchId& id, const std::vector<std::uint8_t>& bytes) {
  ++delivered_;
  cb_.deliver(cb_.now(), bytes);
  if (id.origin == self_) {
    const auto token = tokens_.find(id.seq);
    if (token != tokens_.end()) {
      cb_.ack_batch(token->second);
      tokens_.erase(token);
    }
  }
}

void Disseminator::send_fetches(const BatchCert& cert) {
  // At least one of the f+1 signers is honest and stores the batch.
  for (const ProcessId signer : cert.sig().signers.members()) {
    if (signer == self_ || signer >= params_.n) continue;
    cb_.send(signer, std::make_shared<BatchFetchMsg>(cert.id()));
  }
}

const std::vector<std::uint8_t>* Disseminator::payload_of(const BatchId& id) const {
  const BatchBytes* stored = batches_.bytes(id);
  return stored == nullptr ? nullptr : stored->get();
}

}  // namespace lumiere::dissem
