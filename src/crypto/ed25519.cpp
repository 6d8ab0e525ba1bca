#include "crypto/ed25519.h"

#include <cstring>

#include "common/rng.h"

namespace lumiere::crypto {
namespace {

// ---------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19, five 51-bit limbs.
// ---------------------------------------------------------------------

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

struct Fe {
  u64 v[5];
};

constexpr Fe fe_zero() { return {{0, 0, 0, 0, 0}}; }
constexpr Fe fe_one() { return {{1, 0, 0, 0, 0}}; }
constexpr Fe fe_small(u64 x) { return {{x, 0, 0, 0, 0}}; }

void fe_carry(Fe& f) {
  u64 c;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  c = f.v[1] >> 51; f.v[1] &= kMask51; f.v[2] += c;
  c = f.v[2] >> 51; f.v[2] &= kMask51; f.v[3] += c;
  c = f.v[3] >> 51; f.v[3] &= kMask51; f.v[4] += c;
  c = f.v[4] >> 51; f.v[4] &= kMask51; f.v[0] += 19 * c;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
}

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  fe_carry(r);
  return r;
}

// a - b, offset by 2p so limbs never underflow (inputs are carried).
Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  fe_carry(r);
  return r;
}

Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

Fe fe_mul(const Fe& a, const Fe& b) {
  const u128 f0 = a.v[0], f1 = a.v[1], f2 = a.v[2], f3 = a.v[3], f4 = a.v[4];
  const u64 g0 = b.v[0], g1 = b.v[1], g2 = b.v[2], g3 = b.v[3], g4 = b.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  u128 r0 = f0 * g0 + f1 * g4_19 + f2 * g3_19 + f3 * g2_19 + f4 * g1_19;
  u128 r1 = f0 * g1 + f1 * g0 + f2 * g4_19 + f3 * g3_19 + f4 * g2_19;
  u128 r2 = f0 * g2 + f1 * g1 + f2 * g0 + f3 * g4_19 + f4 * g3_19;
  u128 r3 = f0 * g3 + f1 * g2 + f2 * g1 + f3 * g0 + f4 * g4_19;
  u128 r4 = f0 * g4 + f1 * g3 + f2 * g2 + f3 * g1 + f4 * g0;

  Fe out;
  u64 c;
  c = static_cast<u64>(r0 >> 51); out.v[0] = static_cast<u64>(r0) & kMask51; r1 += c;
  c = static_cast<u64>(r1 >> 51); out.v[1] = static_cast<u64>(r1) & kMask51; r2 += c;
  c = static_cast<u64>(r2 >> 51); out.v[2] = static_cast<u64>(r2) & kMask51; r3 += c;
  c = static_cast<u64>(r3 >> 51); out.v[3] = static_cast<u64>(r3) & kMask51; r4 += c;
  c = static_cast<u64>(r4 >> 51); out.v[4] = static_cast<u64>(r4) & kMask51;
  const u128 fold = static_cast<u128>(19) * c + out.v[0];  // 19*c can top 64 bits
  out.v[0] = static_cast<u64>(fold) & kMask51;
  out.v[1] += static_cast<u64>(fold >> 51);
  return out;
}

Fe fe_sq(const Fe& a) { return fe_mul(a, a); }

u64 load64_le(const std::uint8_t* p) {
  u64 r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<u64>(p[i]) << (8 * i);
  return r;
}

void store64_le(std::uint8_t* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

Fe fe_frombytes(const std::uint8_t s[32]) {
  Fe f;
  f.v[0] = load64_le(s) & kMask51;
  f.v[1] = (load64_le(s + 6) >> 3) & kMask51;
  f.v[2] = (load64_le(s + 12) >> 6) & kMask51;
  f.v[3] = (load64_le(s + 19) >> 1) & kMask51;
  f.v[4] = (load64_le(s + 24) >> 12) & kMask51;
  return f;
}

void fe_tobytes(std::uint8_t out[32], const Fe& f) {
  Fe t = f;
  fe_carry(t);
  fe_carry(t);
  // Canonical reduction: q = 1 iff t >= p, then fold q*19 back in.
  u64 q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  t.v[0] += 19 * q;
  u64 c;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;
  store64_le(out, t.v[0] | (t.v[1] << 51));
  store64_le(out + 8, (t.v[1] >> 13) | (t.v[2] << 38));
  store64_le(out + 16, (t.v[2] >> 26) | (t.v[3] << 25));
  store64_le(out + 24, (t.v[3] >> 39) | (t.v[4] << 12));
}

bool fe_eq(const Fe& a, const Fe& b) {
  std::uint8_t ab[32];
  std::uint8_t bb[32];
  fe_tobytes(ab, a);
  fe_tobytes(bb, b);
  return std::memcmp(ab, bb, 32) == 0;
}

// Square-and-multiply with a little-endian 32-byte exponent.
Fe fe_pow(const Fe& base, const std::uint8_t exp[32]) {
  Fe result = fe_one();
  for (int i = 254; i >= 0; --i) {
    result = fe_sq(result);
    if ((exp[i >> 3] >> (i & 7)) & 1) result = fe_mul(result, base);
  }
  return result;
}

constexpr std::uint8_t kExpPMinus2[32] = {  // p - 2, for inversion
    0xeb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
constexpr std::uint8_t kExpP38[32] = {  // (p + 3) / 8, for square roots
    0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f};
constexpr std::uint8_t kExpP14[32] = {  // (p - 1) / 4; sqrt(-1) = 2^this
    0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f};

Fe fe_invert(const Fe& a) { return fe_pow(a, kExpPMinus2); }

const Fe& fe_d() {  // d = -121665/121666
  static const Fe d = fe_mul(fe_neg(fe_small(121665)), fe_invert(fe_small(121666)));
  return d;
}

const Fe& fe_2d() {
  static const Fe d2 = fe_add(fe_d(), fe_d());
  return d2;
}

const Fe& fe_sqrt_m1() {
  static const Fe s = fe_pow(fe_small(2), kExpP14);
  return s;
}

// ---------------------------------------------------------------------
// Group arithmetic: extended coordinates (X:Y:Z:T), x = X/Z, y = Y/Z,
// T = XY/Z, on -x^2 + y^2 = 1 + d x^2 y^2.
// ---------------------------------------------------------------------

struct Point {
  Fe X, Y, Z, T;
};

Point point_identity() { return {fe_zero(), fe_one(), fe_one(), fe_zero()}; }

// dbl-2008-hwcd (a = -1).
Point point_dbl(const Point& p) {
  const Fe A = fe_sq(p.X);
  const Fe B = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe C = fe_add(zz, zz);
  const Fe D = fe_neg(A);
  const Fe E = fe_sub(fe_sub(fe_sq(fe_add(p.X, p.Y)), A), B);
  const Fe G = fe_add(D, B);
  const Fe F = fe_sub(G, C);
  const Fe H = fe_sub(D, B);
  return {fe_mul(E, F), fe_mul(G, H), fe_mul(F, G), fe_mul(E, H)};
}

// add-2008-hwcd-3 (a = -1, strongly unified).
Point point_add(const Point& p, const Point& q) {
  const Fe A = fe_mul(fe_sub(p.Y, p.X), fe_sub(q.Y, q.X));
  const Fe B = fe_mul(fe_add(p.Y, p.X), fe_add(q.Y, q.X));
  const Fe C = fe_mul(fe_mul(p.T, fe_2d()), q.T);
  const Fe D = fe_mul(fe_add(p.Z, p.Z), q.Z);
  const Fe E = fe_sub(B, A);
  const Fe F = fe_sub(D, C);
  const Fe G = fe_add(D, C);
  const Fe H = fe_add(B, A);
  return {fe_mul(E, F), fe_mul(G, H), fe_mul(F, G), fe_mul(E, H)};
}

// Plain double-and-add over a 256-bit little-endian scalar. Deliberately
// unoptimized: the scheme's point is honest (and measurable) verify cost.
Point point_mul(const std::uint8_t scalar[32], const Point& p) {
  Point r = point_identity();
  for (int i = 255; i >= 0; --i) {
    r = point_dbl(r);
    if ((scalar[i >> 3] >> (i & 7)) & 1) r = point_add(r, p);
  }
  return r;
}

void point_compress(std::uint8_t out[32], const Point& p) {
  const Fe zinv = fe_invert(p.Z);
  const Fe x = fe_mul(p.X, zinv);
  const Fe y = fe_mul(p.Y, zinv);
  fe_tobytes(out, y);
  std::uint8_t xb[32];
  fe_tobytes(xb, x);
  out[31] |= static_cast<std::uint8_t>((xb[0] & 1) << 7);
}

bool point_decompress(Point& out, const std::uint8_t in[32]) {
  const Fe y = fe_frombytes(in);
  const std::uint8_t sign = in[31] >> 7;
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe_one());
  const Fe r = fe_mul(u, fe_invert(v));  // x^2
  Fe x = fe_pow(r, kExpP38);
  if (!fe_eq(fe_sq(x), r)) {
    x = fe_mul(x, fe_sqrt_m1());
    if (!fe_eq(fe_sq(x), r)) return false;  // not a curve point
  }
  std::uint8_t xb[32];
  fe_tobytes(xb, x);
  if ((xb[0] & 1) != sign) x = fe_neg(x);
  out = {x, y, fe_one(), fe_mul(x, y)};
  return true;
}

bool point_eq(const Point& a, const Point& b) {
  return fe_eq(fe_mul(a.X, b.Z), fe_mul(b.X, a.Z)) &&
         fe_eq(fe_mul(a.Y, b.Z), fe_mul(b.Y, a.Z));
}

const Point& base_point() {  // y = 4/5, even x
  static const Point B = [] {
    std::uint8_t yb[32];
    fe_tobytes(yb, fe_mul(fe_small(4), fe_invert(fe_small(5))));
    Point p;
    const bool ok = point_decompress(p, yb);
    LUMIERE_ASSERT(ok);
    return p;
  }();
  return B;
}

// ---------------------------------------------------------------------
// Scalar arithmetic mod the group order
// L = 2^252 + 27742317777372353535851937790883648493.
// ---------------------------------------------------------------------

using U256 = std::array<u64, 4>;  // little-endian words
using U512 = std::array<u64, 8>;

constexpr U256 kL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                     0x1000000000000000ULL};

bool words_geq(const u64* a, const u64* b, int n) {
  for (int i = n - 1; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

void words_sub(u64* a, const u64* b, int n) {  // a -= b (a >= b)
  u64 borrow = 0;
  for (int i = 0; i < n; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = (d >> 64) != 0 ? 1 : 0;
  }
}

U512 shl512(const U256& a, int s) {
  U512 r{};
  const int word = s / 64;
  const int bit = s % 64;
  for (int i = 0; i < 4; ++i) {
    r[i + word] |= bit == 0 ? a[i] : (a[i] << bit);
    if (bit != 0 && i + word + 1 < 8) r[i + word + 1] |= a[i] >> (64 - bit);
  }
  return r;
}

// Shift-subtract reduction; pace is irrelevant next to the point math.
// x < 2^512 <= L << 260, so 259 is the highest shift that can ever
// subtract — and the highest whose shifted L still fits in 512 bits.
U256 mod_l(U512 x) {
  for (int s = 259; s >= 0; --s) {
    const U512 ls = shl512(kL, s);
    if (words_geq(x.data(), ls.data(), 8)) words_sub(x.data(), ls.data(), 8);
  }
  return {x[0], x[1], x[2], x[3]};
}

U256 sc_frombytes(const std::uint8_t s[32]) {
  U512 wide{};
  for (int i = 0; i < 4; ++i) wide[i] = load64_le(s + 8 * i);
  return mod_l(wide);
}

void sc_tobytes(std::uint8_t out[32], const U256& a) {
  for (int i = 0; i < 4; ++i) store64_le(out + 8 * i, a[i]);
}

bool sc_is_zero(const U256& a) { return a[0] == 0 && a[1] == 0 && a[2] == 0 && a[3] == 0; }

bool sc_canonical(const U256& a) { return !words_geq(a.data(), kL.data(), 4); }

U256 sc_add(const U256& a, const U256& b) {
  U256 r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 t = static_cast<u128>(a[i]) + b[i] + carry;
    r[i] = static_cast<u64>(t);
    carry = static_cast<u64>(t >> 64);
  }
  if (carry != 0 || words_geq(r.data(), kL.data(), 4)) words_sub(r.data(), kL.data(), 4);
  return r;
}

U256 sc_mul(const U256& a, const U256& b) {
  U512 r{};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<u128>(a[i]) * b[j] + r[i + j];
      r[i + j] = static_cast<u64>(carry);
      carry >>= 64;
    }
    int k = i + 4;
    while (carry != 0 && k < 8) {
      carry += r[k];
      r[k] = static_cast<u64>(carry);
      carry >>= 64;
      ++k;
    }
  }
  return mod_l(r);
}

U256 sc_from_hash(const Digest& d) {
  U256 r = sc_frombytes(d.bytes().data());
  if (sc_is_zero(r)) r[0] = 1;  // keep nonces/keys invertible-by-convention
  return r;
}

Point sc_mul_point(const U256& s, const Point& p) {
  std::uint8_t bytes[32];
  sc_tobytes(bytes, s);
  return point_mul(bytes, p);
}

Digest challenge(const std::uint8_t r_compressed[32], const std::uint8_t pub_compressed[32],
                 const Digest& message) {
  Sha256 h;
  h.update("lumiere.ed25519.chal");
  h.update(std::span<const std::uint8_t>(r_compressed, 32));
  h.update(std::span<const std::uint8_t>(pub_compressed, 32));
  h.update(message.as_span());
  return h.finish();
}

}  // namespace

struct Ed25519Authenticator::Keys {
  std::vector<U256> secret;
  std::vector<Point> pub;
  std::vector<std::array<std::uint8_t, 32>> pub_bytes;
};

Ed25519Authenticator::Ed25519Authenticator(std::uint32_t n, std::uint64_t seed)
    : Authenticator(n), keys_(std::make_unique<Keys>()) {
  Rng rng(seed ^ 0x71c9a3f0e5d24b87ULL);
  keys_->secret.reserve(n);
  keys_->pub.reserve(n);
  keys_->pub_bytes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t raw[32];
    for (int w = 0; w < 4; ++w) store64_le(raw + 8 * w, rng.next());
    U256 a = sc_frombytes(raw);
    if (sc_is_zero(a)) a[0] = 1;
    const Point A = sc_mul_point(a, base_point());
    std::array<std::uint8_t, 32> ab{};
    point_compress(ab.data(), A);
    keys_->secret.push_back(a);
    keys_->pub.push_back(A);
    keys_->pub_bytes.push_back(ab);
  }
}

Ed25519Authenticator::~Ed25519Authenticator() = default;

SigBytes Ed25519Authenticator::sign_blob(ProcessId id, const Digest& message) const {
  LUMIERE_ASSERT(id < n());
  const U256& a = keys_->secret[id];
  std::uint8_t a_bytes[32];
  sc_tobytes(a_bytes, a);

  Sha256 h;  // deterministic nonce: no randomness enters the experiment
  h.update("lumiere.ed25519.nonce");
  h.update(std::span<const std::uint8_t>(a_bytes, 32));
  h.update(message.as_span());
  const U256 r = sc_from_hash(h.finish());

  const Point R = sc_mul_point(r, base_point());
  std::uint8_t sig[64];
  point_compress(sig, R);
  const U256 e = sc_from_hash(challenge(sig, keys_->pub_bytes[id].data(), message));
  const U256 s = sc_add(r, sc_mul(e, a));
  sc_tobytes(sig + 32, s);
  return SigBytes(std::span<const std::uint8_t>(sig, 64));
}

bool Ed25519Authenticator::check_signature(ProcessId id, const Digest& message,
                                           const SigBytes& sig) const {
  if (sig.size() != 64 || id >= n()) return false;
  const std::uint8_t* bytes = sig.data();
  U512 s_wide{};
  for (int i = 0; i < 4; ++i) s_wide[i] = load64_le(bytes + 32 + 8 * i);
  const U256 s = {s_wide[0], s_wide[1], s_wide[2], s_wide[3]};
  if (!sc_canonical(s)) return false;
  Point R;
  if (!point_decompress(R, bytes)) return false;
  const U256 e = sc_from_hash(challenge(bytes, keys_->pub_bytes[id].data(), message));
  const Point lhs = sc_mul_point(s, base_point());
  const Point rhs = point_add(R, sc_mul_point(e, keys_->pub[id]));
  return point_eq(lhs, rhs);
}

// Half-aggregation: concatenated nonce commitments (sorted by signer)
// plus one summed response. 32 + 32m tag bytes for m signers.
SigBytes Ed25519Authenticator::aggregate_tag(
    const Digest& message, const std::vector<PartialSig>& sorted_shares) const {
  (void)message;
  SigBytes tag = SigBytes::zeros(32 * sorted_shares.size() + 32);
  U256 s_agg = {0, 0, 0, 0};
  std::size_t offset = 0;
  for (const PartialSig& share : sorted_shares) {
    LUMIERE_ASSERT(share.sig.size() == 64);
    std::memcpy(tag.data() + offset, share.sig.data(), 32);
    offset += 32;
    const U256 s = sc_frombytes(share.sig.data() + 32);
    s_agg = sc_add(s_agg, s);
  }
  sc_tobytes(tag.data() + offset, s_agg);
  return tag;
}

bool Ed25519Authenticator::check_aggregate_tag(const Digest& message,
                                               const ThresholdSig& sig) const {
  const std::uint32_t m = sig.signers.count();
  if (sig.tag.size() != 32 * static_cast<std::size_t>(m) + 32) return false;
  const Digest statement = share_statement(message);
  const std::uint8_t* tag = sig.tag.data();

  U256 s_agg;
  for (int i = 0; i < 4; ++i) s_agg[i] = load64_le(tag + 32 * m + 8 * i);
  if (!sc_canonical(s_agg)) return false;

  Point rhs = point_identity();
  std::size_t index = 0;
  for (const ProcessId id : sig.signers.members()) {
    const std::uint8_t* rc = tag + 32 * index;
    ++index;
    Point R;
    if (!point_decompress(R, rc)) return false;
    const U256 e = sc_from_hash(challenge(rc, keys_->pub_bytes[id].data(), statement));
    rhs = point_add(rhs, point_add(R, sc_mul_point(e, keys_->pub[id])));
  }
  const Point lhs = sc_mul_point(s_agg, base_point());
  return point_eq(lhs, rhs);
}

}  // namespace lumiere::crypto
