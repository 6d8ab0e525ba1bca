#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lumiere::crypto {
namespace {

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(key.data(), key.size()),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                    msg.size()));
  EXPECT_EQ(mac.hex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(key.data()),
                                    key.size()),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                    msg.size()));
  EXPECT_EQ(mac.hex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: key 20x0xaa, data 50x0xdd.
TEST(HmacTest, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  const Digest mac = hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()),
                                 std::span<const std::uint8_t>(data.data(), data.size()));
  EXPECT_EQ(mac.hex(), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: oversized key (131 bytes) must be hashed first.
TEST(HmacTest, Rfc4231Case6OversizedKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(key.data(), key.size()),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                    msg.size()));
  EXPECT_EQ(mac.hex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeySensitivity) {
  SecretKey k1{};
  SecretKey k2{};
  k2[0] = 1;
  EXPECT_NE(hmac_sha256(k1, "message"), hmac_sha256(k2, "message"));
}

TEST(HmacTest, MessageSensitivity) {
  SecretKey key{};
  key[5] = 42;
  EXPECT_NE(hmac_sha256(key, "message-a"), hmac_sha256(key, "message-b"));
  EXPECT_EQ(hmac_sha256(key, "same"), hmac_sha256(key, "same"));
}

// -- precomputed key states ----------------------------------------------

struct Rfc4231Case {
  const char* name;
  std::vector<std::uint8_t> key;
  std::string message;
  const char* hex;
};

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<Rfc4231Case> rfc4231_cases() {
  std::vector<std::uint8_t> case4_key;
  for (std::uint8_t b = 1; b <= 25; ++b) case4_key.push_back(b);
  return {
      {"case1", std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"case2", {'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {"case3", std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {"case4", case4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {"case6", std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {"case7", std::vector<std::uint8_t>(131, 0xaa),
       "This is a test using a larger than block-size key and a larger than block-size data. "
       "The key needs to be hashed before being used by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(HmacKeyTest, MatchesOneShotOnRfc4231) {
  for (const Rfc4231Case& c : rfc4231_cases()) {
    const std::span<const std::uint8_t> key(c.key.data(), c.key.size());
    const HmacKey keyed(key);
    EXPECT_EQ(keyed.mac(bytes_of(c.message)).hex(), c.hex) << c.name;
    EXPECT_EQ(keyed.mac(bytes_of(c.message)), hmac_sha256(key, bytes_of(c.message))) << c.name;
  }
}

TEST(HmacKeyTest, ReusableAcrossMessagesOfEveryLength) {
  // The saved inner/outer states must not be disturbed by a mac() call:
  // the same key object answers like a fresh one-shot for each message,
  // across the one- and two-block inner-hash boundary.
  SecretKey secret{};
  for (std::size_t i = 0; i < secret.size(); ++i) secret[i] = static_cast<std::uint8_t>(7 * i);
  const HmacKey keyed(secret);
  std::string message;
  for (int len = 0; len <= 130; ++len) {
    EXPECT_EQ(keyed.mac(bytes_of(message)), hmac_sha256(secret, message)) << "len " << len;
    message.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST(HmacKeyTest, EmptyKey) {
  const HmacKey keyed(std::span<const std::uint8_t>{});
  EXPECT_EQ(keyed.mac(bytes_of("message")).hex(),
            "eb08c1f56d5ddee07f7bdf80468083da06b64cf4fac64fe3a90883df5feacae4");
}

}  // namespace
}  // namespace lumiere::crypto
