#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lumiere::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::hash("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::hash("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hasher.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: exercises the padding path where rem == 0 after a full block.
  const std::string data(64, 'x');
  EXPECT_EQ(Sha256::hash(data).hex(), Sha256::hash(data).hex());
  EXPECT_NE(Sha256::hash(data), Sha256::hash(std::string(63, 'x')));
}

TEST(Sha256Test, PaddingBoundary55And56) {
  // 55 bytes: length fits with padding in one block; 56: needs an extra.
  const std::string a(55, 'y');
  const std::string b(56, 'y');
  EXPECT_NE(Sha256::hash(a), Sha256::hash(b));
  // Regression values computed with coreutils sha256sum.
  EXPECT_EQ(Sha256::hash(std::string(55, 'a')).hex(),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(Sha256::hash(std::string(56, 'a')).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : data) hasher.update(std::string_view(&c, 1));
  EXPECT_EQ(hasher.finish(), Sha256::hash(data));
}

TEST(Sha256Test, ResetReuses) {
  Sha256 hasher;
  hasher.update("abc");
  (void)hasher.finish();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(hasher.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(DigestTest, PrefixAndZero) {
  const Digest d = Sha256::hash("abc");
  EXPECT_EQ(d.prefix64(), 0xba7816bf8f01cfeaULL);
  EXPECT_FALSE(d.is_zero());
  EXPECT_TRUE(Digest().is_zero());
}

TEST(DigestTest, OrderingAndHashing) {
  const Digest a = Sha256::hash("a");
  const Digest b = Sha256::hash("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  std::hash<Digest> hasher;
  EXPECT_NE(hasher(a), hasher(b));
}

// -- kernel parity --------------------------------------------------------
//
// Both compression kernels are driven directly (padding done here, per
// FIPS 180-4 5.1.1) and must agree with each other, with the FIPS vectors
// and with Sha256::update() however the input is split.

/// SHA-256 of `data` computed with `kernel` alone.
Digest hash_with(detail::CompressFn kernel, std::span<const std::uint8_t> data) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = data.size() / 64;
  kernel(state, data.data(), whole);
  std::uint8_t tail[128] = {};
  const std::size_t rem = data.size() % 64;
  if (rem > 0) std::memcpy(tail, data.data() + 64 * whole, rem);
  tail[rem] = 0x80;
  const std::size_t tail_blocks = rem < 56 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * tail_blocks - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  kernel(state, tail, tail_blocks);
  std::array<std::uint8_t, Digest::kSize> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return Digest(out);
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Message lengths straddling every padding and block edge up to two
/// blocks, plus random ones up to 4,200 bytes.
std::vector<std::size_t> parity_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 130; ++len) lengths.push_back(len);
  Rng rng(2104);
  for (int i = 0; i < 40; ++i) lengths.push_back(131 + rng.next_below(4200 - 131 + 1));
  lengths.push_back(4096);
  lengths.push_back(4200);
  return lengths;
}

/// The FIPS 180-4 vectors under one kernel.
void expect_fips_vectors(detail::CompressFn kernel) {
  EXPECT_EQ(hash_with(kernel, bytes_of("")).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash_with(kernel, bytes_of("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hash_with(kernel, bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hash_with(kernel, bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))
                .hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  const std::string million(1'000'000, 'a');
  EXPECT_EQ(hash_with(kernel, bytes_of(million)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256KernelTest, PortableKernelMatchesFipsVectors) {
  expect_fips_vectors(&detail::compress_portable);
}

TEST(Sha256KernelTest, ShaNiKernelMatchesFipsVectors) {
  const detail::CompressFn fast = detail::compress_sha_ni();
  if (fast == nullptr) GTEST_SKIP() << "CPU or build lacks the SHA extensions";
  expect_fips_vectors(fast);
}

TEST(Sha256KernelTest, ShaNiKernelMatchesPortableOnRandomMessages) {
  const detail::CompressFn fast = detail::compress_sha_ni();
  if (fast == nullptr) GTEST_SKIP() << "CPU or build lacks the SHA extensions";
  Rng rng(180);
  for (const std::size_t len : parity_lengths()) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    EXPECT_EQ(hash_with(fast, msg), hash_with(&detail::compress_portable, msg)) << "len " << len;
  }
  // Several blocks per call, each starting from a different chain state.
  std::uint32_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t b[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> payload = random_bytes(rng, 4096);
  fast(a, payload.data(), payload.size() / 64);
  detail::compress_portable(b, payload.data(), payload.size() / 64);
  EXPECT_EQ(std::memcmp(a, b, sizeof(a)), 0);
}

TEST(Sha256KernelTest, UpdateSplitsMatchOneShotAtEveryEdge) {
  Rng rng(4231);
  const std::size_t edges[] = {55, 56, 63, 64, 119, 120};
  for (const std::size_t len : parity_lengths()) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, len);
    const Digest expected = hash_with(&detail::compress_portable, msg);
    ASSERT_EQ(Sha256::hash(msg), expected) << "len " << len;
    for (const std::size_t edge : edges) {
      for (std::size_t split = edge - 2; split <= edge + 2; ++split) {
        if (split > len) break;
        Sha256 h;
        h.update(std::span<const std::uint8_t>(msg.data(), split));
        h.update(std::span<const std::uint8_t>(msg.data() + split, len - split));
        EXPECT_EQ(h.finish(), expected) << "len " << len << " split " << split;
      }
    }
  }
}

TEST(Sha256KernelTest, FourKibPayloadInOddChunksMatchesOneShot) {
  Rng rng(4096);
  const std::vector<std::uint8_t> payload = random_bytes(rng, 4096);
  const Digest expected = hash_with(&detail::compress_portable, payload);
  EXPECT_EQ(Sha256::hash(payload), expected);
  for (const std::size_t chunk : {1U, 7U, 63U, 64U, 65U, 1000U}) {
    Sha256 h;
    for (std::size_t at = 0; at < payload.size(); at += chunk) {
      h.update(std::span<const std::uint8_t>(payload.data() + at,
                                             std::min(chunk, payload.size() - at)));
    }
    EXPECT_EQ(h.finish(), expected) << "chunk " << chunk;
  }
}

TEST(Sha256KernelTest, ReportsTheActiveKernel) {
  const bool accelerated = detail::compress_sha_ni() != nullptr;
  EXPECT_STREQ(sha256_kernel(), accelerated ? "sha-ni" : "portable");
  EXPECT_EQ(detail::active_kernel(),
            accelerated ? detail::compress_sha_ni() : &detail::compress_portable);
}

}  // namespace
}  // namespace lumiere::crypto
