#include "ser/serializer.h"

#include <gtest/gtest.h>

namespace lumiere::ser {
namespace {

TEST(SerializerTest, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.boolean(true);
  w.view(-1);
  w.process(7);
  w.time_point(TimePoint(123456));
  w.duration(Duration::millis(5));

  Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  bool b = false;
  View v = 0;
  ProcessId p = 0;
  TimePoint tp;
  Duration d;
  ASSERT_TRUE(r.u8(u8));
  ASSERT_TRUE(r.u16(u16));
  ASSERT_TRUE(r.u32(u32));
  ASSERT_TRUE(r.u64(u64));
  ASSERT_TRUE(r.i64(i64));
  ASSERT_TRUE(r.boolean(b));
  ASSERT_TRUE(r.view(v));
  ASSERT_TRUE(r.process(p));
  ASSERT_TRUE(r.time_point(tp));
  ASSERT_TRUE(r.duration(d));
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
  EXPECT_EQ(v, -1);
  EXPECT_EQ(p, 7U);
  EXPECT_EQ(tp, TimePoint(123456));
  EXPECT_EQ(d, Duration::millis(5));
}

TEST(SerializerTest, BytesAndStrings) {
  Writer w;
  w.str("hello");
  w.str("");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  w.bytes(std::span<const std::uint8_t>(blob.data(), blob.size()));

  Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  std::string s1;
  std::string s2;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(r.str(s1));
  ASSERT_TRUE(r.str(s2));
  ASSERT_TRUE(r.bytes(out));
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(out, blob);
}

TEST(SerializerTest, DigestRoundTrip) {
  const crypto::Digest d = crypto::Sha256::hash("x");
  Writer w;
  w.digest(d);
  Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  crypto::Digest out;
  ASSERT_TRUE(r.digest(out));
  EXPECT_EQ(out, d);
}

TEST(SerializerTest, SignerSetRoundTrip) {
  // Bitmap form: varint universe, ceil(n/8) bytes, id i at bit i % 8 of
  // byte i / 8. 70 ids span two words and end mid-byte.
  SignerSet set(70);
  set.add(0);
  set.add(9);
  set.add(64);
  set.add(69);
  Writer w;
  w.signer_set(set);
  const std::vector<std::uint8_t> expected = {70, 0x01, 0x02, 0, 0, 0, 0, 0, 0, 0x21};
  EXPECT_EQ(w.data(), expected);
  Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  SignerSet out;
  ASSERT_TRUE(r.signer_set(out));
  EXPECT_EQ(out, set);
  EXPECT_EQ(out.count(), 4U);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializerTest, SignerSetRoundTripsAcrossUniverses) {
  // Every universe size around the byte and word edges, empty, full and
  // sparse, including a universe whose varint takes two bytes.
  for (const std::uint32_t n : {1U, 7U, 8U, 9U, 63U, 64U, 65U, 127U, 128U, 129U, 300U}) {
    for (const int pattern : {0, 1, 2}) {
      SignerSet set(n);
      for (ProcessId id = 0; id < n; ++id) {
        if (pattern == 1 || (pattern == 2 && id % 3 == 1)) set.add(id);
      }
      Writer w;
      w.signer_set(set);
      EXPECT_EQ(w.size(), signer_set_size(n)) << n;
      EXPECT_EQ(w.size(), varint_size(n) + (n + 7) / 8) << n;
      Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
      SignerSet out;
      ASSERT_TRUE(r.signer_set(out)) << "n " << n << " pattern " << pattern;
      EXPECT_EQ(out, set) << "n " << n << " pattern " << pattern;
      EXPECT_EQ(out.count(), set.count());
      EXPECT_TRUE(r.exhausted());
    }
  }
}

TEST(SerializerTest, TruncatedInputFailsCleanly) {
  Writer w;
  w.u64(12345);
  w.str("payload");
  const auto& bytes = w.data();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
    std::uint64_t x = 0;
    std::string s;
    const bool ok = r.u64(x) && r.str(s);
    EXPECT_FALSE(ok) << "cut at " << cut << " must fail";
  }
}

/// True iff `bytes` decodes as a signer set.
bool signer_set_decodes(const std::vector<std::uint8_t>& bytes) {
  Reader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  SignerSet out;
  return r.signer_set(out);
}

TEST(SerializerTest, MalformedSignerSetRejected) {
  // The well-formed base case: n = 4, signers {0, 2}.
  EXPECT_TRUE(signer_set_decodes({4, 0x05}));

  // Universe 0: only a default-constructed set has one; never on the wire.
  EXPECT_FALSE(signer_set_decodes({0}));
  EXPECT_FALSE(signer_set_decodes({0, 0x01}));

  // Universe above kMaxWireUniverse, with room for any bitmap it claims.
  Writer huge;
  huge.varint(kMaxWireUniverse + 1);
  EXPECT_FALSE(signer_set_decodes(huge.data()));
  Writer at_cap;
  at_cap.varint(kMaxWireUniverse);
  std::vector<std::uint8_t> capped = at_cap.data();
  capped.resize(capped.size() + kMaxWireUniverse / 8, 0);
  EXPECT_TRUE(signer_set_decodes(capped));

  // Bitmap shorter than ceil(n/8): n = 9 needs two bytes, n = 64 eight.
  EXPECT_FALSE(signer_set_decodes({9, 0xFF}));
  EXPECT_FALSE(signer_set_decodes({64, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_FALSE(signer_set_decodes({4}));

  // Padding bits past the universe set: n = 4 leaves bits 4..7 of the
  // only byte, n = 65 bits 1..7 of the ninth.
  for (int bit = 4; bit < 8; ++bit) {
    EXPECT_FALSE(signer_set_decodes({4, static_cast<std::uint8_t>(1 << bit)})) << bit;
  }
  EXPECT_FALSE(signer_set_decodes({65, 0, 0, 0, 0, 0, 0, 0, 0, 0x02}));
  EXPECT_TRUE(signer_set_decodes({65, 0, 0, 0, 0, 0, 0, 0, 0, 0x01}));

  // The universe varint: truncated, non-minimal, and wider than 32 bits.
  EXPECT_FALSE(signer_set_decodes({}));
  EXPECT_FALSE(signer_set_decodes({0x84}));
  EXPECT_FALSE(signer_set_decodes({0x84, 0x00, 0x05}));
  EXPECT_FALSE(signer_set_decodes({0x80, 0x80, 0x80, 0x80, 0x10}));
}

TEST(SerializerTest, VarintRoundTripsAndIsCanonical) {
  for (const std::uint32_t v : {0U, 1U, 127U, 128U, 300U, 16383U, 16384U, kMaxWireUniverse,
                                0xFFFFFFFFU}) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v)) << v;
    Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
    std::uint32_t out = 0;
    ASSERT_TRUE(r.varint(out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.exhausted());
  }
  const auto decodes = [](std::vector<std::uint8_t> bytes) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    std::uint32_t out = 0;
    return r.varint(out);
  };
  EXPECT_TRUE(decodes({0xFF, 0xFF, 0xFF, 0xFF, 0x0F}));   // 2^32 - 1
  EXPECT_FALSE(decodes({0xFF, 0xFF, 0xFF, 0xFF, 0x1F}));  // 2^36 - 1
  EXPECT_FALSE(decodes({0x80, 0x80, 0x80, 0x80, 0x80, 0x01}));
  EXPECT_FALSE(decodes({0x80, 0x00}));  // zero, non-minimal
}

TEST(SerializerTest, ThresholdSigTagLengthFollowsThePopcount) {
  // Under a per-signer tag (ed25519's geometry: 32 + 32 per signer) the
  // popcount alone sizes the tag, so a tag one signer short or long
  // breaks the frame instead of parsing as a different aggregate.
  const crypto::SigWireSpec per_signer{64, 32, 32};
  crypto::ThresholdSig sig;
  sig.signers = SignerSet(7);
  for (const ProcessId id : {1U, 4U, 6U}) sig.signers.add(id);
  sig.tag = crypto::SigBytes::zeros(per_signer.tag_bytes(3));
  Writer w;
  w.threshold_sig(sig);
  w.u32(0xC0FFEE);  // whatever follows in the frame
  {
    Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()), per_signer);
    crypto::ThresholdSig out;
    ASSERT_TRUE(r.threshold_sig(out));
    EXPECT_EQ(out, sig);
    std::uint32_t trailer = 0;
    ASSERT_TRUE(r.u32(trailer));
    EXPECT_EQ(trailer, 0xC0FFEEU);
  }
  for (const int tag_signers : {2, 4}) {
    crypto::ThresholdSig bad = sig;
    bad.tag = crypto::SigBytes::zeros(per_signer.tag_bytes(tag_signers));
    Writer bw;
    bw.threshold_sig(bad);
    bw.u32(0xC0FFEE);
    Reader r(std::span<const std::uint8_t>(bw.data().data(), bw.size()), per_signer);
    crypto::ThresholdSig out;
    std::uint32_t trailer = 0;
    const bool intact = r.threshold_sig(out) && r.u32(trailer) && r.exhausted() &&
                        trailer == 0xC0FFEEU;
    EXPECT_FALSE(intact) << "tag sized for " << tag_signers << " signers, popcount 3";
  }
  // Cut anywhere inside the tag: the reader refuses instead of padding.
  for (std::size_t cut = 0; cut + 4 < w.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(w.data().data(), cut), per_signer);
    crypto::ThresholdSig out;
    EXPECT_FALSE(r.threshold_sig(out)) << "cut at " << cut;
  }
}

TEST(SerializerTest, BooleanRejectsGarbage) {
  Writer w;
  w.u8(2);
  Reader r(std::span<const std::uint8_t>(w.data().data(), w.size()));
  bool b = false;
  EXPECT_FALSE(r.boolean(b));
}

}  // namespace
}  // namespace lumiere::ser
