#include "algo/kcore_peeler.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

using testing::AllVertices;
using testing::Members;
using testing::TwoTrianglesAndK4;

/// Reference: k-core of the induced subgraph via full decomposition.
VertexList ReferencePeel(const Graph& g, const VertexList& members,
                         VertexId k) {
  const InducedSubgraph sub = ExtractInducedSubgraph(g, members);
  const auto decomp = CoreDecomposition(sub.graph);
  VertexList out;
  for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
    if (decomp.core[lv] >= k) out.push_back(sub.to_original[lv]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Independent oracle for RemoveAndSplit(members, removed, k): the parts'
/// union is the reference peel of members minus `removed`, every part is
/// non-empty, sorted and connected (IsSubsetConnected), no edge joins two
/// parts, and parts come in order of their first member.
void ExpectSplitOfReducedSet(const Graph& g, const VertexList& members,
                             VertexId removed, VertexId k,
                             const std::vector<VertexList>& components) {
  VertexList reduced;
  for (const VertexId v : members) {
    if (v != removed) reduced.push_back(v);
  }
  std::vector<int> part(g.num_vertices(), -1);
  VertexList survivors;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const VertexList& comp = components[i];
    ASSERT_FALSE(comp.empty());
    EXPECT_TRUE(std::is_sorted(comp.begin(), comp.end()));
    EXPECT_TRUE(IsSubsetConnected(g, comp));
    if (i > 0) {
      EXPECT_LT(components[i - 1].front(), comp.front());
    }
    for (const VertexId v : comp) part[v] = static_cast<int>(i);
    survivors.insert(survivors.end(), comp.begin(), comp.end());
  }
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(survivors, ReferencePeel(g, reduced, k));
  for (const VertexId v : survivors) {
    for (const VertexId nbr : g.neighbors(v)) {
      if (part[nbr] >= 0) {
        EXPECT_EQ(part[nbr], part[v]) << v << "-" << nbr;
      }
    }
  }
}

/// Two K4s, {0..3} and {4..7}, joined through 8 (adjacent to 0, 1, 9) and
/// 9 (adjacent to 4, 5, 8). The whole graph is a connected 3-core.
Graph TwoK4sThroughALink() {
  GraphBuilder b;
  b.SetNumVertices(10);
  for (const VertexId base : {0u, 4u}) {
    for (VertexId u = base; u < base + 4; ++u) {
      for (VertexId v = u + 1; v < base + 4; ++v) b.AddEdge(u, v);
    }
  }
  b.AddEdge(8, 0);
  b.AddEdge(8, 1);
  b.AddEdge(8, 9);
  b.AddEdge(9, 4);
  b.AddEdge(9, 5);
  return b.Build();
}

TEST(SubsetPeelerTest, WholeGraphPeel) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  EXPECT_EQ(peeler.Peel(all, 2).size(), 10u);
  EXPECT_EQ(peeler.Peel(all, 3), Members({6, 7, 8, 9}));
  EXPECT_TRUE(peeler.Peel(all, 4).empty());
}

TEST(SubsetPeelerTest, CascadeThroughBridge) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove vertex 0 from {0..5}: triangle A unravels, B survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 0, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({3, 4, 5}));  // 1 and 2 cascaded
}

TEST(SubsetPeelerTest, RemoveBridgeEndpointSplits) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove 3: triangle B loses a member and unravels; A survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 3, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({0, 1, 2}));
}

TEST(SubsetPeelerTest, RemoveFromK4LeavesTriangle) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components =
      peeler.RemoveAndSplit(Members({6, 7, 8, 9}), 9, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({6, 7, 8}));  // nothing cascaded
}

TEST(SubsetPeelerTest, CascadeCutsParentInTwo) {
  const Graph g = TwoK4sThroughALink();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  // Removing 8 drops 9 to degree 2, so the link unravels and the K4s part.
  const auto components = peeler.RemoveAndSplit(all, 8, 3);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1, 2, 3}));
  EXPECT_EQ(components[1], Members({4, 5, 6, 7}));
  ExpectSplitOfReducedSet(g, all, 8, 3, components);
}

TEST(SubsetPeelerTest, TheLinkGoesWithOneSideOrWithTheCascade) {
  const Graph g = TwoK4sThroughALink();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  // At k = 1 vertex 9 survives the removal of 8, on the second K4's side.
  auto components = peeler.RemoveAndSplit(all, 8, 1);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1, 2, 3}));
  EXPECT_EQ(components[1], Members({4, 5, 6, 7, 9}));
  ExpectSplitOfReducedSet(g, all, 8, 1, components);
  // At k = 3, removing 2 leaves 3 with degree 2; the cascade eats the first
  // K4 and the link, and only the second K4 is left.
  components = peeler.RemoveAndSplit(all, 2, 3);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({4, 5, 6, 7}));
  ExpectSplitOfReducedSet(g, all, 2, 3, components);
}

TEST(SubsetPeelerTest, RemovingAHubCutsIntoManyParts) {
  const Graph g = testing::StarGraph(5);
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  // k = 0 keeps every leaf, each now its own component.
  const auto components = peeler.RemoveAndSplit(all, 0, 0);
  ASSERT_EQ(components.size(), 5u);
  for (VertexId leaf = 1; leaf <= 5; ++leaf) {
    EXPECT_EQ(components[leaf - 1], Members({leaf}));
  }
  ExpectSplitOfReducedSet(g, all, 0, 0, components);
}

TEST(SubsetPeelerTest, RemovingTheMiddleOfAPathCutsItInTwo) {
  const Graph g = testing::PathGraph(7);
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  const auto components = peeler.RemoveAndSplit(all, 3, 1);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1, 2}));
  EXPECT_EQ(components[1], Members({4, 5, 6}));
  ExpectSplitOfReducedSet(g, all, 3, 1, components);
}

TEST(SubsetPeelerTest, OneVertexBoundary) {
  // K4 {0..3} with the cycle 3-4-5-6-3 hanging off vertex 3. Removing 5 at
  // k = 2 unravels 4 and 6, whose one surviving neighbour is 3.
  GraphBuilder b;
  b.SetNumVertices(7);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 3);
  const Graph g = b.Build();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  const auto components = peeler.RemoveAndSplit(all, 5, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({0, 1, 2, 3}));
  ExpectSplitOfReducedSet(g, all, 5, 2, components);
}

TEST(SubsetPeelerTest, CascadeEmptiesParent) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.RemoveAndSplit(Members({0, 1, 2}), 1, 2).empty());
  EXPECT_TRUE(peeler.RemoveAndSplit(Members({6, 7, 8, 9}), 6, 3).empty());
  ExpectSplitOfReducedSet(g, Members({6, 7, 8, 9}), 6, 3, {});
}

TEST(SubsetPeelerTest, PeelThenSplitSeparatesComponents) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  const auto components = peeler.Split(peeler.Peel(all, 2));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 6u);
  EXPECT_EQ(components[1].size(), 4u);
}

TEST(SubsetPeelerTest, EmptySubset) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel({}, 2).empty());
  EXPECT_TRUE(peeler.Split({}).empty());
  EXPECT_TRUE(peeler.IsConnectedKCore({}, 2));
}

TEST(SubsetPeelerTest, SubsetBelowKAllPeeled) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel(Members({0, 1}), 2).empty());
}

TEST(SubsetPeelerTest, IsConnectedKCoreCases) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({0, 1, 2}), 2));
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({9, 6, 8, 7}), 3));  // unsorted
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({6, 7, 8, 9}), 4));
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({0, 1, 2, 3, 4, 5}), 2));
  // Degrees suffice but the set is disconnected: two triangles, two edges.
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 2, 6, 7, 8}), 2));
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 4, 5}), 1));
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 3}), 1));  // 3 isolated
}

TEST(SubsetPeelerTest, LoadDeleteAndComponentOf) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  peeler.Load(all, 2);
  EXPECT_EQ(peeler.ComponentOf(4), Members({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(peeler.ComponentOf(9), Members({6, 7, 8, 9}));
  peeler.Delete(3, 2);  // triangle B unravels
  EXPECT_FALSE(peeler.Contains(4));
  EXPECT_EQ(peeler.ComponentOf(0), Members({0, 1, 2}));
  peeler.Delete(3, 2);  // already gone: a no-op
  EXPECT_EQ(peeler.ComponentOf(2), Members({0, 1, 2}));
  peeler.Load(Members({0, 1, 2, 3}), 2);  // 3 is peeled on load
  EXPECT_FALSE(peeler.Contains(3));
  EXPECT_EQ(peeler.ComponentOf(1), Members({0, 1, 2}));
}

TEST(SubsetPeelerTest, ReusableAcrossEpochs) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(peeler.Peel(Members({6, 7, 8, 9}), 3),
              Members({6, 7, 8, 9}));
    EXPECT_EQ(peeler.Peel(Members({0, 1, 2}), 2), Members({0, 1, 2}));
  }
}

class PeelerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelerPropertyTest, PeelMatchesReferenceOnRandomSubsets) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(120, 400, seed);
  SubsetPeeler peeler(g);
  Rng rng(seed ^ 0xABCD);
  for (int trial = 0; trial < 20; ++trial) {
    VertexList members;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.NextBernoulli(0.5)) members.push_back(v);
    }
    for (const VertexId k : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(peeler.Peel(members, k), ReferencePeel(g, members, k))
          << "seed=" << seed << " trial=" << trial << " k=" << k;
    }
  }
}

TEST_P(PeelerPropertyTest, RemoveAndSplitMatchesPeelOfReducedSet) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(100, 350, seed);
  SubsetPeeler peeler(g);
  const VertexList core = MaximalKCore(g, 3);
  if (core.empty()) GTEST_SKIP() << "no 3-core at this seed";
  Rng rng(seed);
  // RemoveAndSplit requires a connected parent: the 3-core may not be one,
  // so each of its components is a parent in turn.
  for (const VertexList& parent : peeler.Split(core)) {
    for (int trial = 0; trial < 10; ++trial) {
      const VertexId removed = parent[rng.NextBounded(parent.size())];
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " removed=" << removed);
      ExpectSplitOfReducedSet(g, parent, removed, 3,
                              peeler.RemoveAndSplit(parent, removed, 3));
    }
  }
}

TEST_P(PeelerPropertyTest, RemoveAndSplitCutsANecklaceApart) {
  // Dense random beads joined in a ring by two-vertex links (as in
  // TwoK4sThroughALink), so removing a link vertex or a bead's attachment
  // point can cut the parent into several parts.
  const std::uint64_t seed = GetParam();
  constexpr VertexId kBeads = 5;
  constexpr VertexId kBeadSize = 8;
  constexpr VertexId kStride = kBeadSize + 2;
  Rng rng(seed);
  GraphBuilder b;
  b.SetNumVertices(kBeads * kStride);
  for (VertexId bead = 0; bead < kBeads; ++bead) {
    const VertexId base = bead * kStride;
    for (VertexId u = base; u < base + kBeadSize; ++u) {
      for (VertexId v = u + 1; v < base + kBeadSize; ++v) {
        if (rng.NextBernoulli(0.7)) b.AddEdge(u, v);
      }
    }
    const VertexId left = base + kBeadSize;
    const VertexId right = left + 1;
    const VertexId next = ((bead + 1) % kBeads) * kStride;
    b.AddEdge(left, right);
    for (VertexId i = 0; i < 2; ++i) {
      b.AddEdge(left, base + static_cast<VertexId>(rng.NextBounded(kBeadSize)));
      b.AddEdge(right, next + static_cast<VertexId>(rng.NextBounded(kBeadSize)));
    }
  }
  const Graph g = b.Build();
  SubsetPeeler peeler(g);
  for (const VertexId k : {1u, 2u, 3u}) {
    for (const VertexList& parent :
         peeler.Split(MaximalKCore(g, k))) {
      for (const VertexId removed : parent) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << k
                                          << " removed=" << removed);
        ExpectSplitOfReducedSet(g, parent, removed, k,
                                peeler.RemoveAndSplit(parent, removed, k));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelerPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ticl
