#include "core/community.h"

#include <gtest/gtest.h>

#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

TEST(CommunityTest, MakeSortsAndEvaluates) {
  const Graph g = TwoTrianglesAndK4();
  const Community c = MakeCommunity(g, Members({2, 0, 1}),
                                    AggregationSpec::Sum());
  EXPECT_EQ(c.members, Members({0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.influence, 60.0);
  EXPECT_EQ(c.size(), 3u);
}

TEST(CommunityTest, HashMatchesVertexSetHash) {
  const Graph g = TwoTrianglesAndK4();
  const Community c =
      MakeCommunity(g, Members({7, 9, 8}), AggregationSpec::Avg());
  const VertexList sorted = Members({7, 8, 9});
  EXPECT_EQ(c.hash, HashVertexSet(sorted.data(), sorted.size()));
}

TEST(CommunityTest, SameSetDifferentOrderSameHash) {
  const Graph g = TwoTrianglesAndK4();
  const Community a =
      MakeCommunity(g, Members({3, 4, 5}), AggregationSpec::Sum());
  const Community b =
      MakeCommunity(g, Members({5, 3, 4}), AggregationSpec::Avg());
  EXPECT_EQ(a.hash, b.hash);
}

TEST(CommunityTest, HashCollisionKeepsBothCommunities) {
  // Two different member sets forced onto one hash: dedup must compare
  // members, so neither is mistaken for a repeat of the other.
  const Graph g = TwoTrianglesAndK4();
  Community a = MakeCommunity(g, Members({0, 1, 2}), AggregationSpec::Sum());
  Community b = MakeCommunity(g, Members({6, 7, 8}), AggregationSpec::Sum());
  b.hash = a.hash;
  EXPECT_FALSE(SameMembers(a, b));
  EXPECT_TRUE(SameMembers(a, a));

  TopRList<Community> top(3);
  ASSERT_FALSE(Retains(top, a));
  top.Insert(a.influence, a.hash, a);
  EXPECT_TRUE(Retains(top, a));  // a true repeat is caught
  ASSERT_FALSE(Retains(top, b));
  top.Insert(b.influence, b.hash, b);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE(Retains(top, b));
}

TEST(CommunityTest, OverlapDetection) {
  const Graph g = TwoTrianglesAndK4();
  const auto spec = AggregationSpec::Sum();
  const Community a = MakeCommunity(g, Members({0, 1, 2}), spec);
  const Community b = MakeCommunity(g, Members({2, 3, 4}), spec);
  const Community c = MakeCommunity(g, Members({6, 7, 8}), spec);
  EXPECT_TRUE(CommunitiesOverlap(a, b));
  EXPECT_TRUE(CommunitiesOverlap(b, a));
  EXPECT_FALSE(CommunitiesOverlap(a, c));
  EXPECT_TRUE(CommunitiesOverlap(a, a));
}

TEST(CommunityTest, ToStringFormatsAndCaps) {
  const Graph g = TwoTrianglesAndK4();
  const Community c =
      MakeCommunity(g, Members({6, 7, 8, 9}), AggregationSpec::Sum());
  const std::string full = CommunityToString(c);
  EXPECT_NE(full.find("6, 7, 8, 9"), std::string::npos);
  EXPECT_NE(full.find("|H|=4"), std::string::npos);
  EXPECT_NE(full.find("f=106"), std::string::npos);
  const std::string capped = CommunityToString(c, 2);
  EXPECT_NE(capped.find("6, 7, ..."), std::string::npos);
}

}  // namespace
}  // namespace ticl
