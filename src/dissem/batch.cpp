#include "dissem/batch.h"

#include <array>
#include <string_view>

#include "common/assert.h"

namespace lumiere::dissem {

crypto::Digest batch_statement(const BatchId& id) {
  constexpr std::string_view kDomain = "lumiere.batch";
  std::array<std::uint8_t, 4 + kDomain.size() + 4 + 8 + crypto::Digest::kSize> buf{};
  std::size_t pos = 0;
  const auto le = [&](std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) buf[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  le(kDomain.size(), 4);
  for (const char c : kDomain) buf[pos++] = static_cast<std::uint8_t>(c);
  le(id.origin, 4);
  le(id.seq, 8);
  for (const std::uint8_t b : id.digest.bytes()) buf[pos++] = b;
  return crypto::Sha256::hash(std::span<const std::uint8_t>(buf.data(), buf.size()));
}

bool BatchCert::verify(crypto::AuthView auth, const ProtocolParams& params) const {
  if (sig_.message != batch_statement(id_)) return false;
  return auth.verify_aggregate(sig_, params.small_quorum());
}

void BatchCert::serialize(ser::Writer& w) const {
  id_.serialize(w);
  w.threshold_sig(sig_);
}

std::optional<BatchCert> BatchCert::deserialize(ser::Reader& r) {
  BatchCert cert;
  auto id = BatchId::deserialize(r);
  if (!id) return std::nullopt;
  cert.id_ = *id;
  if (!r.threshold_sig(cert.sig_)) return std::nullopt;
  return cert;
}

std::vector<std::uint8_t> encode_refs(const std::vector<BatchCert>& refs) {
  if (refs.empty()) return {};
  // Sized exactly: a committed refs payload lives as long as its block.
  std::size_t size = 8;
  for (const BatchCert& cert : refs) size += cert.serialized_size();
  ser::Writer w(size);
  w.u32(kRefsMagic);
  w.u32(static_cast<std::uint32_t>(refs.size()));
  for (const BatchCert& cert : refs) cert.serialize(w);
  LUMIERE_ASSERT(w.size() == size);
  return std::move(w).take();
}

bool is_refs_payload(std::span<const std::uint8_t> payload) {
  ser::Reader r(payload);
  std::uint32_t magic = 0;
  return r.u32(magic) && magic == kRefsMagic;
}

std::optional<std::vector<BatchCert>> decode_refs(std::span<const std::uint8_t> payload,
                                                  crypto::SigWireSpec sig_wire) {
  ser::Reader r(payload, sig_wire);
  std::uint32_t magic = 0;
  if (!r.u32(magic) || magic != kRefsMagic) return std::nullopt;
  std::uint32_t count = 0;
  if (!r.u32(count)) return std::nullopt;
  // Each ref occupies well over 100 wire bytes; a count the remaining
  // bytes cannot cover is malformed (bounds the allocation below).
  if (count == 0 || count > r.remaining() / BatchId::wire_size()) return std::nullopt;
  std::vector<BatchCert> refs;
  refs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto cert = BatchCert::deserialize(r);
    if (!cert) return std::nullopt;
    refs.push_back(std::move(*cert));
  }
  if (!r.exhausted()) return std::nullopt;
  return refs;
}

}  // namespace lumiere::dissem
