// IsSubsetConnected (the validator's check) and the peeler's whole-subset
// connectivity primitives: Split and NearestNeighbors.

#include "algo/connectivity.h"

#include <gtest/gtest.h>

#include "algo/kcore_peeler.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::AllVertices;
using testing::Members;
using testing::PathGraph;
using testing::TwoTrianglesAndK4;

TEST(SplitTest, FixtureHasTwoComponents) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components = peeler.Split(AllVertices(g));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(components[1], Members({6, 7, 8, 9}));
}

TEST(SplitTest, IsolatedVerticesAreSingletons) {
  GraphBuilder b;
  b.SetNumVertices(4);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  SubsetPeeler peeler(g);
  EXPECT_EQ(peeler.Split(AllVertices(g)).size(), 3u);
}

TEST(SplitTest, EmptyGraph) {
  const Graph g;
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Split(AllVertices(g)).empty());
}

TEST(SplitTest, SplitsBridgelessSubset) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Dropping the bridge endpoints splits {0,1} from {4,5}.
  const auto components = peeler.Split(Members({0, 1, 4, 5}));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1}));
  EXPECT_EQ(components[1], Members({4, 5}));
}

TEST(SplitTest, WholeComponentStaysTogether) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components = peeler.Split(Members({0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 6u);
}

TEST(SplitTest, EmptySubset) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Split({}).empty());
}

TEST(SplitTest, SingletonsWithoutEdges) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components = peeler.Split(Members({0, 9}));
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitTest, ComponentsComeSortedInFirstMemberOrder) {
  // Edges 0-3 and 3-1, vertex 2 isolated: BFS from 0 meets 3 before 1,
  // yet the component must come out sorted, and before {2}.
  GraphBuilder b;
  b.SetNumVertices(4);
  b.AddEdge(0, 3);
  b.AddEdge(3, 1);
  const Graph g = b.Build();
  SubsetPeeler peeler(g);
  const auto components = peeler.Split(AllVertices(g));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1, 3}));
  EXPECT_EQ(components[1], Members({2}));
}

TEST(IsSubsetConnectedTest, Cases) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(IsSubsetConnected(g, Members({0, 1, 2})));
  EXPECT_TRUE(IsSubsetConnected(g, Members({2, 3})));       // bridge
  EXPECT_FALSE(IsSubsetConnected(g, Members({0, 1, 4})));   // gap
  EXPECT_FALSE(IsSubsetConnected(g, Members({0, 6})));      // components
  EXPECT_TRUE(IsSubsetConnected(g, Members({7})));          // singleton
  EXPECT_TRUE(IsSubsetConnected(g, {}));                    // empty
}

/// One `allowed` byte per vertex, all set except `blocked`.
std::vector<std::uint8_t> AllowAllBut(const Graph& g,
                                      VertexId blocked = kInvalidVertex) {
  std::vector<std::uint8_t> allowed(g.num_vertices(), 1);
  if (blocked != kInvalidVertex) allowed[blocked] = 0;
  return allowed;
}

TEST(NearestNeighborsTest, LimitRespectedAndSeedFirst) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList got = peeler.NearestNeighbors(6, 3, AllowAllBut(g));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 6u);
  // Neighbours visited in ascending adjacency order.
  EXPECT_EQ(got[1], 7u);
  EXPECT_EQ(got[2], 8u);
}

TEST(NearestNeighborsTest, ExpandsToTwoHops) {
  const Graph g = PathGraph(6);  // 0-1-2-3-4-5
  SubsetPeeler peeler(g);
  const VertexList got = peeler.NearestNeighbors(0, 4, AllowAllBut(g));
  EXPECT_EQ(got, Members({0, 1, 2, 3}));
}

TEST(NearestNeighborsTest, BfsOrderIsDistanceOrder) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // From vertex 0: 1-hop = {1, 2}; 2-hop adds 3 (via 2); 3-hop adds 4, 5.
  const VertexList got = peeler.NearestNeighbors(0, 6, AllowAllBut(g));
  EXPECT_EQ(got, Members({0, 1, 2, 3, 4, 5}));
}

TEST(NearestNeighborsTest, FilterBlocksExpansion) {
  const Graph g = PathGraph(6);
  SubsetPeeler peeler(g);
  // Vertex 2 blocked: BFS from 0 cannot pass it.
  const VertexList got = peeler.NearestNeighbors(0, 6, AllowAllBut(g, 2));
  EXPECT_EQ(got, Members({0, 1}));
}

TEST(NearestNeighborsTest, ComponentBoundary) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList got = peeler.NearestNeighbors(6, 10, AllowAllBut(g));
  EXPECT_EQ(got.size(), 4u);  // K4 only
}

TEST(NearestNeighborsTest, ZeroLimitEmpty) {
  const Graph g = PathGraph(3);
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.NearestNeighbors(0, 0, AllowAllBut(g)).empty());
}

}  // namespace
}  // namespace ticl
