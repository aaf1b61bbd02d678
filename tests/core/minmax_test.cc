#include "core/minmax_search.h"

#include <gtest/gtest.h>

#include "core/verification.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

Query MinQuery(VertexId k, std::uint32_t r) {
  Query q;
  q.k = k;
  q.r = r;
  q.aggregation = AggregationSpec::Min();
  return q;
}

Query MaxQuery(VertexId k, std::uint32_t r) {
  Query q = MinQuery(k, r);
  q.aggregation = AggregationSpec::Max();
  return q;
}

TEST(MinPeelTest, FixtureTopTwo) {
  // Peel snapshots in value order: K4@1, {7,8,9}@2, {0..5}@5, {0,1,2}@10.
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = MinPeelSearch(g, MinQuery(2, 2));
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].members, Members({0, 1, 2}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 10.0);
  EXPECT_EQ(result.communities[1].members, Members({0, 1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 5.0);
}

TEST(MinPeelTest, FixtureFullFamily) {
  const Graph g = TwoTrianglesAndK4();
  // The largest r keeps no more peel steps than there are vertices.
  for (const std::uint32_t r : {10u, 4294967295u}) {
    const SearchResult result = MinPeelSearch(g, MinQuery(2, r));
    ASSERT_EQ(result.communities.size(), 4u);
    EXPECT_DOUBLE_EQ(result.communities[0].influence, 10.0);
    EXPECT_DOUBLE_EQ(result.communities[1].influence, 5.0);
    EXPECT_DOUBLE_EQ(result.communities[2].influence, 2.0);
    EXPECT_DOUBLE_EQ(result.communities[3].influence, 1.0);
    EXPECT_EQ(result.communities[2].members, Members({7, 8, 9}));
    EXPECT_EQ(result.communities[3].members, Members({6, 7, 8, 9}));
  }
}

TEST(MinPeelTest, NestedResultsAllowedInTic) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = MinPeelSearch(g, MinQuery(2, 2));
  // {0,1,2} is nested inside {0..5} — allowed without the non-overlap
  // constraint, exactly like the prior work's containment chains.
  EXPECT_TRUE(CommunitiesOverlap(result.communities[0],
                                 result.communities[1]));
}

TEST(MinPeelTest, TonicTopThreeDisjoint) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MinQuery(2, 3);
  query.non_overlapping = true;
  const SearchResult result = MinPeelSearch(g, query);
  ASSERT_EQ(result.communities.size(), 3u);
  EXPECT_EQ(result.communities[0].members, Members({0, 1, 2}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 10.0);
  EXPECT_EQ(result.communities[1].members, Members({3, 4, 5}));
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 5.0);
  EXPECT_EQ(result.communities[2].members, Members({7, 8, 9}));
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 2.0);
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(MinPeelTest, KThreeOnlyK4Family) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = MinPeelSearch(g, MinQuery(3, 5));
  ASSERT_EQ(result.communities.size(), 1u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 1.0);
}

TEST(MinPeelTest, EmptyWhenNoKCore) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(MinPeelSearch(g, MinQuery(4, 2)).communities.empty());
}

TEST(MinPeelTest, ResultValidates) {
  const Graph g = TwoTrianglesAndK4();
  const Query query = MinQuery(2, 4);
  const SearchResult result = MinPeelSearch(g, query);
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(MaxComponentsTest, FixtureRanking) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = MaxComponentsSearch(g, MaxQuery(2, 5));
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 100.0);
  EXPECT_EQ(result.communities[1].members, Members({0, 1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 30.0);
}

TEST(MaxComponentsTest, TonicIdentical) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MaxQuery(2, 5);
  query.non_overlapping = true;
  const SearchResult result = MaxComponentsSearch(g, query);
  EXPECT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(MinMaxDeathTest, KindChecked) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_DEATH(MinPeelSearch(g, MaxQuery(2, 1)), "min");
  EXPECT_DEATH(MaxComponentsSearch(g, MinQuery(2, 1)), "max");
}

TEST(MinMaxDeathTest, SizeConstraintRejected) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MinQuery(2, 1);
  query.size_limit = 4;
  EXPECT_DEATH(MinPeelSearch(g, query), "NP-hard");
}

}  // namespace
}  // namespace ticl
