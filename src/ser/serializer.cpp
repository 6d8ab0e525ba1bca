#include "ser/serializer.h"

#include "common/assert.h"

namespace lumiere::ser {

void Writer::signer_set(const SignerSet& set) {
  const std::uint32_t universe = set.universe_size();
  // Readers reject an empty universe; only a default-constructed set has
  // one, and the genesis QC, its one holder, ships no signature.
  LUMIERE_ASSERT(universe >= 1);
  varint(universe);
  const std::size_t bitmap_bytes = (universe + 7) / 8;
  for (std::size_t i = 0; i < bitmap_bytes; ++i) {
    u8(static_cast<std::uint8_t>(set.word(i / 8) >> (8 * (i % 8))));
  }
}

bool Reader::varint(std::uint32_t& out) {
  std::uint32_t value = 0;
  for (unsigned shift = 0; shift < 35; shift += 7) {
    std::uint8_t byte = 0;
    if (!u8(byte)) return false;
    const std::uint32_t group = byte & 0x7F;
    // The fifth byte holds bits 28..31 only.
    if (shift == 28 && group > 0x0F) return false;
    value |= group << shift;
    if ((byte & 0x80) == 0) {
      if (group == 0 && shift > 0) return false;  // non-minimal
      out = value;
      return true;
    }
  }
  return false;
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
  SignerSet signers;
  if (!signer_set(signers)) return false;
  crypto::SigBytes tag;
  if (!raw(tag, sig_wire_.tag_bytes(signers.count()))) return false;
  out.signers = std::move(signers);
  out.tag = std::move(tag);
  return true;
}

bool Reader::signer_set(SignerSet& out) {
  std::uint32_t universe = 0;
  if (!varint(universe)) return false;
  // The universe is the cluster size n; no deployment is anywhere near
  // kMaxWireUniverse, and an unvalidated value would let a malformed
  // message force a large bitmap allocation before any other check.
  if (universe == 0 || universe > kMaxWireUniverse) return false;
  const std::size_t bitmap_bytes = (universe + 7) / 8;
  if (remaining() < bitmap_bytes) return false;
  const std::span<const std::uint8_t> bitmap = data_.subspan(pos_, bitmap_bytes);
  // Bits past the universe must be zero: one signer set, one encoding.
  if (universe % 8 != 0 && (bitmap.back() >> (universe % 8)) != 0) return false;
  SignerSet set(universe);
  for (std::size_t i = 0; i < bitmap_bytes; ++i) {
    set.add_word(i / 8, static_cast<std::uint64_t>(bitmap[i]) << (8 * (i % 8)));
  }
  pos_ += bitmap_bytes;
  out = std::move(set);
  return true;
}

}  // namespace lumiere::ser
