#include "common/signer_set.h"

#include <gtest/gtest.h>

namespace lumiere {
namespace {

TEST(SignerSetTest, AddAndContains) {
  SignerSet set(100);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.add(0));
  EXPECT_TRUE(set.add(63));
  EXPECT_TRUE(set.add(64));
  EXPECT_TRUE(set.add(99));
  EXPECT_FALSE(set.add(63)) << "duplicate add must return false";
  EXPECT_EQ(set.count(), 4U);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(200)) << "out-of-universe lookups are false, not UB";
}

TEST(SignerSetTest, MembersSorted) {
  SignerSet set(10);
  set.add(7);
  set.add(2);
  set.add(5);
  const auto members = set.members();
  ASSERT_EQ(members.size(), 3U);
  EXPECT_EQ(members[0], 2U);
  EXPECT_EQ(members[1], 5U);
  EXPECT_EQ(members[2], 7U);
}

TEST(SignerSetTest, WordsReadAndMergeTheBitmap) {
  SignerSet set(70);
  set.add(3);
  set.add(64);
  EXPECT_EQ(set.word(0), 0x8ULL);
  EXPECT_EQ(set.word(1), 0x1ULL);
  // Merging counts only the ids that are new: 3 is already in.
  set.add_word(0, 0x18ULL);             // ids 3 and 4
  set.add_word(1, 0x20ULL);             // id 69, the last in the universe
  EXPECT_EQ(set.count(), 4U);
  EXPECT_TRUE(set.contains(4));
  EXPECT_TRUE(set.contains(69));
  EXPECT_EQ(set.members(), (std::vector<ProcessId>{3, 4, 64, 69}));
}

TEST(SignerSetTest, IntersectionCount) {
  SignerSet a(130);
  SignerSet b(130);
  for (ProcessId id = 0; id < 100; id += 2) a.add(id);      // evens < 100
  for (ProcessId id = 0; id < 130; id += 3) b.add(id);      // multiples of 3
  // Intersection: multiples of 6 below 100 -> 0,6,...,96 -> 17 values.
  EXPECT_EQ(a.intersection_count(b), 17U);
}

TEST(SignerSetTest, EqualityIsSetEquality) {
  SignerSet a(8);
  SignerSet b(8);
  a.add(3);
  a.add(5);
  b.add(5);
  b.add(3);
  EXPECT_EQ(a, b);
  b.add(1);
  EXPECT_NE(a, b);
}

TEST(SignerSetTest, QuorumIntersectionProperty) {
  // Two quorums of 2f+1 out of n = 3f+1 intersect in >= f+1 processes —
  // the core of every proof in the paper. Checked for several f.
  for (std::uint32_t f : {1U, 2U, 5U, 10U}) {
    const std::uint32_t n = 3 * f + 1;
    SignerSet q1(n);
    SignerSet q2(n);
    for (ProcessId id = 0; id < 2 * f + 1; ++id) q1.add(id);            // first 2f+1
    for (ProcessId id = n - (2 * f + 1); id < n; ++id) q2.add(id);      // last 2f+1
    EXPECT_GE(q1.intersection_count(q2), f + 1);
  }
}

}  // namespace
}  // namespace lumiere
