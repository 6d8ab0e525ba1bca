#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define LUMIERE_SHA256_X86 1
#endif

namespace lumiere::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

alignas(16) constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int k) noexcept {
  return (x >> k) | (x << (32 - k));
}

#ifdef LUMIERE_SHA256_X86

/// The compression function on the SHA extensions. The state lives in
/// two registers (ABEF and CDGH, the order sha256rnds2 wants) for the
/// whole run of blocks; each group of four rounds also extends the
/// message schedule four words with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni_kernel(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) noexcept {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));        // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                             // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);                                       // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                               // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                                    // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    // msg[j % 4] holds schedule words W[4j .. 4j+3] for the group in flight.
    __m128i msg[4];
    for (int j = 0; j < 4; ++j) {
      msg[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)), kByteSwap);
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      const __m128i wk = _mm_add_epi32(
          msg[j % 4], _mm_load_si128(reinterpret_cast<const __m128i*>(kRound + 4 * j)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
      if (j < 12) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16] for group j+4.
        __m128i next = _mm_sha256msg1_epu32(msg[j % 4], msg[(j + 1) % 4]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(msg[(j + 3) % 4], msg[(j + 2) % 4], 4));
        msg[j % 4] = _mm_sha256msg2_epu32(next, msg[(j + 3) % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1U << 9)) != 0;
  const bool sse41 = (ecx & (1U << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1U << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#endif  // LUMIERE_SHA256_X86

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count) noexcept {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0];
    std::uint32_t b = state[1];
    std::uint32_t c = state[2];
    std::uint32_t d = state[3];
    std::uint32_t e = state[4];
    std::uint32_t f = state[5];
    std::uint32_t g = state[6];
    std::uint32_t h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn compress_sha_ni() noexcept {
#ifdef LUMIERE_SHA256_X86
  static const bool available = cpu_has_sha_ni();
  return available ? &compress_sha_ni_kernel : nullptr;
#else
  return nullptr;
#endif
}

CompressFn active_kernel() noexcept {
  static const CompressFn kernel = [] {
    const CompressFn fast = compress_sha_ni();
    return fast != nullptr ? fast : &compress_portable;
  }();
  return kernel;
}

}  // namespace detail

const char* sha256_kernel() noexcept {
  return detail::active_kernel() == &detail::compress_portable ? "portable" : "sha-ni";
}

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * kSize);
  for (auto b : bytes_) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

void Sha256::reset() noexcept {
  std::memcpy(state_, kInit, sizeof(state_));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < 64) return;
    detail::active_kernel()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks go to the kernel in one call, straight from the input.
  if (left >= 64) {
    detail::active_kernel()(state_, in, left / 64);
    in += left & ~std::size_t{63};
    left &= 63;
  }
  if (left > 0) {
    std::memcpy(buffer_, in, left);
    buffer_len_ = left;
  }
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length; a second block when
  // the 0x80 byte leaves no room for the length in this one.
  const detail::CompressFn kernel = detail::active_kernel();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    kernel(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  kernel(state_, buffer_, 1);

  std::array<std::uint8_t, Digest::kSize> out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return Digest(out);
}

}  // namespace lumiere::crypto
