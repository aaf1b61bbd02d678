#include "util/top_r_list.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace ticl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TopRListTest, EmptyState) {
  TopRList<int> list(3);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.capacity(), 3u);
  EXPECT_EQ(list.Threshold(), -kInf);
}

TEST(TopRListTest, ThresholdStaysNegInfUntilFull) {
  TopRList<int> list(3);
  list.Insert(10.0, 1, 0);
  EXPECT_EQ(list.Threshold(), -kInf);
  list.Insert(20.0, 2, 0);
  EXPECT_EQ(list.Threshold(), -kInf);
  list.Insert(5.0, 3, 0);
  EXPECT_EQ(list.Threshold(), 5.0);
}

TEST(TopRListTest, InsertBelowThresholdRejected) {
  TopRList<int> list(2);
  EXPECT_TRUE(list.Insert(10.0, 1, 0));
  EXPECT_TRUE(list.Insert(20.0, 2, 0));
  EXPECT_FALSE(list.Insert(5.0, 3, 0));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Threshold(), 10.0);
}

TEST(TopRListTest, InsertEvictsWorst) {
  TopRList<int> list(2);
  list.Insert(10.0, 1, 100);
  list.Insert(20.0, 2, 200);
  EXPECT_TRUE(list.Insert(15.0, 3, 300));
  const auto sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].value, 200);
  EXPECT_EQ(sorted[1].value, 300);
  EXPECT_EQ(list.Threshold(), 15.0);
}

TEST(TopRListTest, CapacityOne) {
  TopRList<std::string> list(1);
  list.Insert(1.0, 1, "a");
  list.Insert(3.0, 2, "b");
  list.Insert(2.0, 3, "c");
  const auto sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].value, "b");
}

TEST(TopRListTest, TieBreakByLowerKey) {
  TopRList<int> list(1);
  list.Insert(10.0, 50, 1);
  // Same score, lower tie key ranks ahead.
  EXPECT_TRUE(list.Insert(10.0, 20, 2));
  // Same score, higher tie key loses.
  EXPECT_FALSE(list.Insert(10.0, 90, 3));
  EXPECT_EQ(list.SortedDescending()[0].value, 2);
}

TEST(TopRListTest, EqualScoreEqualTieRejectedWhenFull) {
  TopRList<int> list(1);
  list.Insert(10.0, 7, 1);
  EXPECT_FALSE(list.Insert(10.0, 7, 2));
}

TEST(TopRListTest, SortedDescendingOrder) {
  TopRList<int> list(5);
  const double scores[] = {3.0, 1.0, 4.0, 1.5, 9.0};
  for (int i = 0; i < 5; ++i) {
    list.Insert(scores[i], static_cast<std::uint64_t>(i), i);
  }
  const auto sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 5u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(sorted[i - 1].score, sorted[i].score);
  }
  EXPECT_EQ(sorted[0].value, 4);  // score 9.0
  EXPECT_EQ(sorted[4].value, 1);  // score 1.0
}

TEST(TopRListTest, TakeSortedDescendingEmptiesList) {
  TopRList<int> list(3);
  list.Insert(1.0, 1, 10);
  list.Insert(2.0, 2, 20);
  const auto taken = list.TakeSortedDescending();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.Threshold(), -kInf);
}

TEST(TopRListTest, ManyInsertsKeepExactTopR) {
  TopRList<int> list(10);
  // Insert 0..999 in a scrambled deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const int value = (i * 617) % 1000;
    list.Insert(static_cast<double>(value),
                static_cast<std::uint64_t>(value), value);
  }
  const auto sorted = list.SortedDescending();
  ASSERT_EQ(sorted.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sorted[i].value, 999 - static_cast<int>(i));
  }
}

TEST(TopRListTest, BetterIsStrictWeakOrder) {
  using L = TopRList<int>;
  EXPECT_TRUE(L::Better(2.0, 0, 1.0, 0));
  EXPECT_FALSE(L::Better(1.0, 0, 2.0, 0));
  EXPECT_TRUE(L::Better(1.0, 1, 1.0, 2));
  EXPECT_FALSE(L::Better(1.0, 2, 1.0, 1));
  EXPECT_FALSE(L::Better(1.0, 1, 1.0, 1));  // irreflexive
}

TEST(TopRListTest, NegativeAndInfiniteScores) {
  TopRList<int> list(2);
  list.Insert(-kInf, 1, 1);
  list.Insert(-5.0, 2, 2);
  EXPECT_TRUE(list.Insert(-1.0, 3, 3));  // evicts -inf
  const auto sorted = list.SortedDescending();
  EXPECT_EQ(sorted[0].value, 3);
  EXPECT_EQ(sorted[1].value, 2);
}

}  // namespace
}  // namespace ticl
