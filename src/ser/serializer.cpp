#include "ser/serializer.h"

namespace lumiere::ser {

void Writer::signer_set(const SignerSet& set) {
  u32(set.universe_size());
  u32(set.count());
  for (const ProcessId id : set.members()) process(id);
}

bool Reader::bytes(std::vector<std::uint8_t>& out) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (remaining() < len) return false;
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return true;
}

bool Reader::bytes_view(std::span<const std::uint8_t>& out) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (remaining() < len) return false;
  out = data_.subspan(pos_, len);
  pos_ += len;
  return true;
}

bool Reader::str(std::string& out) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (remaining() < len) return false;
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return true;
}

bool Reader::digest(crypto::Digest& out) {
  if (remaining() < crypto::Digest::kSize) return false;
  std::array<std::uint8_t, crypto::Digest::kSize> raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = data_[pos_ + i];
  pos_ += raw.size();
  out = crypto::Digest(raw);
  return true;
}

bool Reader::raw(crypto::SigBytes& out, std::size_t count) {
  if (remaining() < count) return false;
  out.assign(data_.subspan(pos_, count));
  pos_ += count;
  return true;
}

bool Reader::partial_sig(crypto::PartialSig& out) {
  ProcessId signer = kNoProcess;
  if (!process(signer)) return false;
  crypto::SigBytes sig;
  if (!raw(sig, sig_wire_.sig_bytes)) return false;
  out.signer = signer;
  out.sig = std::move(sig);
  return true;
}

bool Reader::threshold_sig(crypto::ThresholdSig& out) {
  crypto::Digest message;
  SignerSet signers;
  if (!digest(message) || !signer_set(signers)) return false;
  crypto::SigBytes tag;
  if (!raw(tag, sig_wire_.tag_bytes(signers.count()))) return false;
  out.message = message;
  out.signers = std::move(signers);
  out.tag = std::move(tag);
  return true;
}

bool Reader::signer_set(SignerSet& out) {
  std::uint32_t universe = 0;
  std::uint32_t count = 0;
  if (!u32(universe) || !u32(count)) return false;
  // The universe is the cluster size n; no deployment is anywhere near
  // kMaxWireUniverse, and an unvalidated value would let a malformed
  // message force a ~512MB bitmap allocation before any other check.
  if (universe > kMaxWireUniverse) return false;
  if (count > universe) return false;
  // Each member id occupies sizeof(ProcessId) bytes in the payload, so a
  // count the buffer cannot back is malformed — reject before allocating.
  if (remaining() < static_cast<std::size_t>(count) * sizeof(ProcessId)) return false;
  SignerSet set(universe);
  for (std::uint32_t i = 0; i < count; ++i) {
    ProcessId id = kNoProcess;
    if (!process(id)) return false;
    if (id >= universe) return false;
    if (!set.add(id)) return false;  // duplicate ⇒ malformed
  }
  out = std::move(set);
  return true;
}

}  // namespace lumiere::ser
