// SHA-256 (FIPS 180-4).
//
// Self-contained implementation: the build environment is offline and the
// paper's crypto assumption only requires a collision-resistant hash for
// digests/commitments. Verified against the FIPS test vectors in
// tests/crypto/sha256_test.cpp.
//
// Kernel choice. The compression function has two implementations that
// produce identical bytes: a portable C++ kernel, and on x86 a kernel
// built on the SHA extensions (SHA-NI; compiled with a per-function
// target attribute, so the rest of the build keeps its baseline ISA).
// The first hash in a process asks CPUID once whether the CPU has SHA,
// SSSE3 and SSE4.1, and every Sha256 from then on uses the accelerated
// kernel if so and the portable one otherwise. There is no switch to
// override the choice; sha256_kernel() reports it, and the parity test
// in tests/crypto/sha256_test.cpp runs both kernels side by side.
// Non-x86 builds compile only the portable kernel.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace lumiere::crypto {

/// A 32-byte digest value with value semantics.
class Digest {
 public:
  static constexpr std::size_t kSize = 32;

  constexpr Digest() noexcept : bytes_{} {}
  constexpr explicit Digest(const std::array<std::uint8_t, kSize>& bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] const std::array<std::uint8_t, kSize>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::span<const std::uint8_t> as_span() const noexcept {
    return {bytes_.data(), bytes_.size()};
  }

  /// Lowercase hex rendering, e.g. for logs and goldens.
  [[nodiscard]] std::string hex() const;

  /// First 8 bytes interpreted big-endian — convenient short identity for
  /// hash maps and trace output. Not a substitute for full comparison.
  [[nodiscard]] std::uint64_t prefix64() const noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | bytes_[static_cast<std::size_t>(i)];
    return v;
  }

  [[nodiscard]] bool is_zero() const noexcept {
    for (auto b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  auto operator<=>(const Digest&) const noexcept = default;

 private:
  std::array<std::uint8_t, kSize> bytes_;
};

namespace detail {

/// A compression kernel: absorbs `count` consecutive 64-byte blocks
/// starting at `blocks` into the eight-word chaining `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) noexcept;

/// The portable kernel; runs everywhere.
void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count) noexcept;

/// The SHA-extensions kernel, or nullptr when this build targets a
/// non-x86 CPU or the running CPU lacks the extensions.
[[nodiscard]] CompressFn compress_sha_ni() noexcept;

/// The kernel every Sha256 uses, chosen once per process.
[[nodiscard]] CompressFn active_kernel() noexcept;

}  // namespace detail

/// Which compression kernel this process hashes with: "sha-ni" or
/// "portable" (benches print it so numbers from different hosts compare).
[[nodiscard]] const char* sha256_kernel() noexcept;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept {
    update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(data.data()),
                                         data.size()));
  }
  /// Finishes the hash. The hasher must be reset() before reuse.
  [[nodiscard]] Digest finish() noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  static Digest hash(std::string_view data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

 private:
  std::uint32_t state_[8] = {};
  std::uint8_t buffer_[64] = {};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace lumiere::crypto

// Digest hashing support for unordered containers.
template <>
struct std::hash<lumiere::crypto::Digest> {
  std::size_t operator()(const lumiere::crypto::Digest& d) const noexcept {
    return static_cast<std::size_t>(d.prefix64());
  }
};
