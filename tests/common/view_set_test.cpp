#include "common/view_set.h"

#include <gtest/gtest.h>

namespace lumiere {
namespace {

TEST(ViewSetTest, InsertReportsNewViewsAcrossWordBoundaries) {
  ViewSet set;
  for (const View v : {View{-1}, View{0}, View{63}, View{64}, View{1'000'000'000'000}}) {
    EXPECT_FALSE(set.contains(v)) << v;
    EXPECT_TRUE(set.insert(v)) << v;
    EXPECT_TRUE(set.contains(v)) << v;
    EXPECT_FALSE(set.insert(v)) << "duplicate insert of " << v << " must return false";
  }
  // Neighbours of the inserted views, in the same words, stay absent.
  for (const View v : {View{-2}, View{-64}, View{1}, View{62}, View{65}, View{999'999'999'999}}) {
    EXPECT_FALSE(set.contains(v)) << v;
  }
}

TEST(ViewSetTest, AbsentWordIsNotContained) {
  ViewSet set;
  set.insert(5);
  EXPECT_FALSE(set.contains(64 * 7 + 5)) << "word 7 was never touched";
  EXPECT_FALSE(set.contains(-65)) << "word -2 was never touched";
}

TEST(ViewSetTest, ViewsOneWordApartDoNotAlias) {
  ViewSet set;
  ASSERT_TRUE(set.insert(3));
  for (View k = 1; k <= 4; ++k) {
    EXPECT_FALSE(set.contains(3 + 64 * k)) << "k = " << k;
    EXPECT_FALSE(set.contains(3 - 64 * k)) << "k = " << k;
    EXPECT_TRUE(set.insert(3 + 64 * k)) << "k = " << k;
  }
  EXPECT_FALSE(set.contains(-61)) << "3 - 64 shares bit 3 of word -1";
  EXPECT_TRUE(set.insert(-61));
  EXPECT_FALSE(set.insert(3));
}

}  // namespace
}  // namespace lumiere
