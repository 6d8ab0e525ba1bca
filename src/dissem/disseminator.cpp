#include "dissem/disseminator.h"

#include "common/assert.h"
#include "dissem/messages.h"

namespace lumiere::dissem {

Disseminator::Disseminator(const ProtocolParams& params, crypto::AuthView auth,
                           crypto::Signer signer, DissemSpec spec, DisseminatorCallbacks cb)
    : params_(params),
      auth_(auth),
      signer_(signer),
      spec_(spec),
      cb_(std::move(cb)),
      self_(signer_.id()) {
  LUMIERE_ASSERT(auth);
  LUMIERE_ASSERT(cb_.send && cb_.broadcast && cb_.schedule && cb_.now);
  LUMIERE_ASSERT(cb_.lease_batch && cb_.ack_batch && cb_.deliver);
  LUMIERE_ASSERT(spec_.push_interval > Duration::zero());
  LUMIERE_ASSERT(spec_.retry_interval > Duration::zero());
  LUMIERE_ASSERT(spec_.max_refs_per_proposal > 0);
}

void Disseminator::start() {
  if (running_) return;
  running_ = true;
  cb_.schedule(spec_.push_interval, [this] { push_tick(); });
  cb_.schedule(spec_.retry_interval, [this] { retry_tick(); });
}

void Disseminator::push_tick() {
  for (std::uint32_t i = 0; i < spec_.max_batches_per_tick; ++i) {
    if (pending_.size() >= spec_.max_uncertified) break;
    std::vector<std::uint8_t> leased;
    const std::uint64_t token = cb_.lease_batch(leased);
    if (token == 0) break;
    auto payload = std::make_shared<const std::vector<std::uint8_t>>(std::move(leased));
    const std::uint64_t seq = ++seq_;
    const BatchId id{self_, seq,
                     crypto::Sha256::hash(
                         std::span<const std::uint8_t>(payload->data(), payload->size()))};
    tokens_.emplace(seq, token);
    auto [it, inserted] = pending_.emplace(
        seq, PendingCert{id, cb_.now(),
                         crypto::QuorumAggregator(auth_, batch_statement(id),
                                                  params_.small_quorum())});
    LUMIERE_ASSERT(inserted);
    it->second.agg.add(crypto::threshold_share(signer_, batch_statement(id)));
    ++pushed_;
    store_.emplace(id, payload);
    cb_.broadcast(std::make_shared<BatchPushMsg>(id, std::move(payload)));
    maybe_finalize(seq);
  }
  cb_.schedule(spec_.push_interval, [this] { push_tick(); });
}

void Disseminator::retry_tick() {
  const TimePoint now = cb_.now();
  // Re-push own batches still short of f+1 acks (pushes lost to drops or
  // a partition); acking is idempotent on the receiver side.
  for (const auto& [seq, pending] : pending_) {
    if (now - pending.pushed_at < spec_.retry_interval) continue;
    const auto stored = store_.find(pending.id);
    if (stored != store_.end()) {
      cb_.broadcast(std::make_shared<BatchPushMsg>(pending.id, stored->second));
    }
  }
  // Re-announce own certs nobody ordered yet — the path that floods a
  // healed partition's backlog back into the leaders' certified queues.
  for (const auto& [id, cert] : own_certs_) {
    cb_.broadcast(std::make_shared<BatchCertMsg>(cert));
  }
  // Re-fetch committed-but-missing payloads from their cert signers.
  for (const auto& [id, cert] : unresolved_) send_fetches(cert);
  cb_.schedule(spec_.retry_interval, [this] { retry_tick(); });
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
  store_.try_emplace(id, msg.shared_payload());
  if (id.origin != self_ && id.origin < params_.n) {
    cb_.send(id.origin,
             std::make_shared<BatchAckMsg>(id, crypto::threshold_share(signer_,
                                                                       batch_statement(id))));
  }
  const auto missing = unresolved_.find(id);
  if (missing != unresolved_.end()) {
    unresolved_.erase(missing);
    deliver_one(id);
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
  own_certs_.emplace(cert.id(), cert);
  cb_.broadcast(std::make_shared<BatchCertMsg>(cert));
  accept_cert(cert);
}

void Disseminator::handle_cert(const BatchCertMsg& msg) {
  if (!verify_cert_cached(msg.cert())) return;
  accept_cert(msg.cert());
}

void Disseminator::handle_fetch(ProcessId from, const BatchFetchMsg& msg) {
  if (from >= params_.n || from == self_) return;
  const auto it = store_.find(msg.id());
  if (it == store_.end()) return;
  ++fetches_served_;
  cb_.send(from, std::make_shared<BatchPushMsg>(msg.id(), it->second));
}

void Disseminator::accept_cert(const BatchCert& cert) {
  const BatchId& id = cert.id();
  if (ordered_.contains(id) || queued_.contains(id)) return;
  queue_.push_back(cert);
  queued_.insert(id);
  sample_depth();
}

bool Disseminator::verify_cert_cached(const BatchCert& cert) {
  ser::Writer w(std::move(scratch_));
  cert.serialize(w);
  scratch_ = std::move(w).take();
  const crypto::Digest key =
      crypto::Sha256::hash(std::span<const std::uint8_t>(scratch_.data(), scratch_.size()));
  if (verified_certs_.contains(key)) return true;
  if (!cert.verify(auth_, params_)) return false;
  // Cap as QcVerifyCache does: junk certs must not grow this unboundedly.
  if (verified_certs_.size() >= 4096) verified_certs_.clear();
  verified_certs_.insert(key);
  return true;
}

std::vector<std::uint8_t> Disseminator::make_proposal_payload(View /*v*/) {
  std::vector<BatchCert> refs;
  while (refs.size() < spec_.max_refs_per_proposal && !queue_.empty()) {
    BatchCert cert = std::move(queue_.front());
    queue_.pop_front();
    if (queued_.erase(cert.id()) == 0) continue;  // stale copy, superseded
    schedule_reinsert(cert);
    refs.push_back(std::move(cert));
  }
  if (refs.empty()) return {};
  sample_depth();
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
  bool changed = false;
  for (const BatchCert& cert : *refs) {
    // Withhold only references this node itself had queued (and hence
    // verified); an unknown cert in a Byzantine proposal must not enter
    // the reinsert path unvetted.
    if (queued_.erase(cert.id()) == 0) continue;
    schedule_reinsert(cert);
    changed = true;
  }
  if (changed) sample_depth();
}

void Disseminator::schedule_reinsert(const BatchCert& cert) {
  cb_.schedule(spec_.reinsert_timeout, [this, cert] {
    const BatchId& id = cert.id();
    if (ordered_.contains(id) || queued_.contains(id)) return;
    queue_.push_back(cert);
    queued_.insert(id);
    ++reinserted_;
    sample_depth();
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
    if (!ordered_.insert(id).second) continue;
    queued_.erase(id);
    if (store_.contains(id)) {
      deliver_one(id);
    } else {
      unresolved_.emplace(id, cert);
      send_fetches(cert);
    }
  }
  sample_depth();
}

void Disseminator::deliver_one(const BatchId& id) {
  const auto it = store_.find(id);
  LUMIERE_ASSERT(it != store_.end());
  ++delivered_;
  cb_.deliver(cb_.now(), *it->second);
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
  const auto it = store_.find(id);
  return it == store_.end() ? nullptr : it->second.get();
}

void Disseminator::sample_depth() {
  if (cb_.on_certified_depth) cb_.on_certified_depth(cb_.now(), queued_.size());
}

}  // namespace lumiere::dissem
